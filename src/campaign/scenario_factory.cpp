#include "sesame/campaign/scenario_factory.hpp"

#include <stdexcept>

namespace sesame::campaign {

std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                              std::uint64_t run_index) {
  // splitmix64: jump the campaign seed by (run_index + 1) golden-gamma
  // increments, then finalize. The +1 keeps run 0 from echoing the raw
  // campaign seed, so a campaign never shares its stream with a manual
  // single run seeded S.
  std::uint64_t z = campaign_seed + (run_index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ScenarioFactory::ScenarioFactory(platform::RunnerConfig base)
    : base_(std::move(base)) {}

platform::RunnerConfig ScenarioFactory::default_scenario() {
  platform::RunnerConfig config;
  config.n_uavs = 3;
  config.area = {0.0, 300.0, 0.0, 300.0};
  config.coverage.altitude_m = 20.0;
  config.n_persons = 8;
  config.max_time_s = 2000.0;
  return config;
}

ScenarioFactory ScenarioFactory::preset(const std::string& name) {
  platform::RunnerConfig config = default_scenario();
  if (name == "nominal") {
    // default shape as-is
  } else if (name == "battery_fault") {
    config.battery_fault = platform::BatteryFaultEvent{"uav2", 250.0, 0.40, 70.0};
  } else if (name == "spoofing") {
    config.spoofing = platform::SpoofingEvent{"uav1", 60.0, 2.0};
  } else if (name == "spoofing_lossy") {
    config.spoofing = platform::SpoofingEvent{"uav1", 60.0, 2.0};
    config.lossy_links = true;
  } else if (name == "baseline") {
    config.sesame_enabled = false;
  } else if (name == "chaos") {
    ScenarioFactory factory(std::move(config));
    factory.enable_chaos();
    return factory;
  } else if (name == "fleet_1024") {
    // Fleet-scale stress shape: 1,024 vehicles sweeping a 4x4 km area
    // under chaos fault injection with recovery enabled. Baseline firmware
    // (no per-vehicle EDDI stack) keeps the runtime focused on fleet
    // stepping and the failure/recovery path at scale.
    config.sesame_enabled = false;
    config.n_uavs = 1024;
    config.area = {0.0, 4000.0, 0.0, 4000.0};
    config.n_persons = 256;
    config.max_time_s = 300.0;
    ScenarioFactory factory(std::move(config));
    factory.enable_chaos();
    return factory;
  } else {
    throw std::invalid_argument("ScenarioFactory: unknown preset '" + name +
                                "'");
  }
  return ScenarioFactory(std::move(config));
}

const std::vector<std::string>& ScenarioFactory::preset_names() {
  static const std::vector<std::string> names{
      "nominal",  "battery_fault", "spoofing", "spoofing_lossy",
      "baseline", "chaos",         "fleet_1024"};
  return names;
}

void ScenarioFactory::enable_chaos(const sim::ChaosProfile& profile) {
  chaos_ = true;
  chaos_profile_ = profile;
  base_.recovery_enabled = true;
}

namespace {
// Decouples the chaos-schedule stream from the world-seed stream: without
// the salt, run i's schedule would be drawn from the same seed that drives
// the world RNG, correlating the fault draw with the flight noise.
constexpr std::uint64_t kChaosSalt = 0xC4A05C4A05C4A05CULL;
}  // namespace

platform::RunnerConfig ScenarioFactory::config_for_run(
    std::uint64_t campaign_seed, std::uint64_t run_index) const {
  platform::RunnerConfig config = base_;
  config.seed = derive_run_seed(campaign_seed, run_index);
  if (chaos_) {
    std::vector<std::string> names;
    names.reserve(config.n_uavs);
    for (std::size_t i = 0; i < config.n_uavs; ++i) {
      names.push_back("uav" + std::to_string(i + 1));  // MissionRunner naming
    }
    config.failure_schedule = sim::FailureSchedule::chaos(
        derive_run_seed(campaign_seed ^ kChaosSalt, run_index), names,
        chaos_profile_);
    config.recovery_enabled = true;
  }
  return config;
}

std::unique_ptr<platform::MissionRunner> ScenarioFactory::make_runner(
    std::uint64_t campaign_seed, std::uint64_t run_index) const {
  return std::make_unique<platform::MissionRunner>(
      config_for_run(campaign_seed, run_index));
}

}  // namespace sesame::campaign
