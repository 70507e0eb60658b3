// Reusable scenario wiring for single runs and Monte Carlo campaigns.
//
// The scenario shapes the paper evaluates (nominal SAR sweep, Fig. 5
// battery fault, Fig. 6/7 spoofing attack, degraded C2 links) are a
// library concern so the campaign runner, campaign_cli, the service and
// the tests all build runs from one place.
//
// Seed derivation (the campaign determinism contract): run i of a campaign
// seeded S simulates with `derive_run_seed(S, i)` — a splitmix64 finalizer
// over S and i. The mapping depends only on (S, i), never on which worker
// thread executes the run or in what order runs complete, which is what
// makes campaign results bit-identical regardless of `--jobs`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sesame/platform/mission_runner.hpp"

namespace sesame::campaign {

/// Per-run seed for run `run_index` of a campaign seeded `campaign_seed`.
/// SplitMix-style: statistically independent streams for neighbouring run
/// indices, stable across platforms and thread counts.
std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                              std::uint64_t run_index);

/// Builds per-run MissionRunner configurations from a base scenario.
class ScenarioFactory {
 public:
  /// Wraps an explicit base configuration (its `seed` is overridden per
  /// run; everything else is shared by all runs).
  explicit ScenarioFactory(platform::RunnerConfig base);

  /// The default scenario shape campaign_cli starts from: a
  /// 3-UAV fleet sweeping a 300 m x 300 m area at 20 m for 8 persons,
  /// 2000 s budget.
  static platform::RunnerConfig default_scenario();

  /// Named paper-scenario presets built on default_scenario():
  ///  - "nominal":        clean SAR sweep (Figs. 4/5 baseline-on arm)
  ///  - "battery_fault":  Fig. 5 thermal battery fault on uav2 at t=250 s
  ///  - "spoofing":       Fig. 6/7 GPS spoofing of uav1 from t=60 s
  ///  - "spoofing_lossy": spoofing under the distance-dependent C2 radio
  ///  - "baseline":       nominal with SESAME disabled (naive firmware)
  ///  - "chaos":          nominal + per-run randomized vehicle failures
  ///                      with the recovery subsystem active
  ///  - "fleet_1024":     1,024-vehicle sweep of a 4x4 km area under chaos
  ///                      failures + recovery (fleet-scale stress; baseline
  ///                      firmware, no per-vehicle EDDI stack)
  /// Throws std::invalid_argument for an unknown name.
  static ScenarioFactory preset(const std::string& name);
  static const std::vector<std::string>& preset_names();

  const platform::RunnerConfig& base() const noexcept { return base_; }
  platform::RunnerConfig& base() noexcept { return base_; }

  /// Chaos mode: every run gets its own seed-derived sim::FailureSchedule
  /// (drawn from `profile`) and runs with recovery enabled. The schedule
  /// seed is a pure function of (campaign seed, run index) — independent
  /// of the world seed stream — so chaos campaigns keep the byte-identical
  /// any-`--jobs` determinism contract.
  void enable_chaos(const sim::ChaosProfile& profile = {});
  bool chaos_enabled() const noexcept { return chaos_; }
  const sim::ChaosProfile& chaos_profile() const noexcept {
    return chaos_profile_;
  }

  /// The base configuration with the run's derived seed applied (and, in
  /// chaos mode, the run's generated failure schedule).
  platform::RunnerConfig config_for_run(std::uint64_t campaign_seed,
                                        std::uint64_t run_index) const;

  /// Constructs the fully wired runner for one campaign run. Each call
  /// builds an isolated stack (bus + world + mission + monitors); runners
  /// from different calls share no mutable state, so they may execute on
  /// different threads concurrently. The only thing they share is the
  /// read-only design-time asset bundle from the process-wide
  /// platform::DesignLibrary.
  std::unique_ptr<platform::MissionRunner> make_runner(
      std::uint64_t campaign_seed, std::uint64_t run_index) const;

 private:
  platform::RunnerConfig base_;
  bool chaos_ = false;
  sim::ChaosProfile chaos_profile_;
};

}  // namespace sesame::campaign
