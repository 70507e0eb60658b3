// Probes of the EDDI layer: a replay of each run's UavEddi::tick calls on
// copies of that run's own EDDIs, and per-call probes of the monitors'
// public entry points. The inputs mirror what MissionRunner feeds a UAV at
// mission altitude, and the configuration is the calibrated one the
// spoofing preset's EDDIs run with.
#include <algorithm>
#include <functional>

#include "layers.hpp"
#include "sesame/deepknowledge/analysis.hpp"
#include "sesame/deepknowledge/mlp.hpp"
#include "sesame/eddi/uav_eddi.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/perception/detector.hpp"
#include "sesame/platform/mission_runner.hpp"

namespace perfbench {

namespace {

namespace eddi = sesame::eddi;
namespace sinadra = sesame::sinadra;
using sesame::perception::Detection;
using sesame::perception::PersonDetector;

constexpr std::size_t kDkWindow = 16;  // MissionRunner's EDDI window

/// Median over 5 batches of the mean wall time per call, in microseconds.
double time_per_call_us(std::size_t calls,
                        const std::function<double(std::size_t)>& call) {
  volatile double keep = 0.0;
  for (std::size_t i = 0; i < calls / 4 + 1; ++i) keep = keep + call(i);
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) keep = keep + call(i);
    us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  return median(us);
}

std::vector<double> detection_features(const PersonDetector& detector,
                                       double alt, double confidence,
                                       sesame::mathx::Rng& rng) {
  Detection d;
  d.confidence = confidence;
  return detector.detection_features(d, alt, rng);
}

/// MissionRunner feeds an EDDI camera features only while its UAV is
/// airborne above 1 m (sim::Uav::airborne's modes); the tick record at the
/// end of the same tick tells which case each EDDI tick was.
bool features_present(const sesame::platform::UavTickRecord& rec) {
  using sesame::sim::FlightMode;
  const bool airborne = rec.mode == FlightMode::kTakeoff ||
                        rec.mode == FlightMode::kMission ||
                        rec.mode == FlightMode::kHold ||
                        rec.mode == FlightMode::kReturnToBase ||
                        rec.mode == FlightMode::kEmergencyLand;
  return airborne && rec.altitude_m > 1.0;
}

}  // namespace

struct EddiProbe::State {
  std::size_t calls = 0;
  eddi::UavEddiConfig cfg;
  std::vector<std::vector<double>> reference;
  std::shared_ptr<sesame::deepknowledge::Mlp> model;
  std::shared_ptr<sesame::deepknowledge::Analyzer> analyzer;
  std::vector<eddi::EddiInputs> inputs;  ///< one per tick, cycled
  std::vector<eddi::EddiInputs> grounded;  ///< `inputs` without features
};

EddiProbe::EddiProbe(std::uint64_t seed, std::size_t calls)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.calls = calls;
  const auto factory = sesame::campaign::ScenarioFactory::preset("spoofing");
  const auto& base = factory.base();
  {
    const auto runner = factory.make_runner(mix64(seed), 0);
    s.cfg = runner->uav_eddi(runner->uav_names().front()).config();
  }
  const double alt = base.coverage.altitude_m;
  const double band = base.descend_altitude_m;
  const PersonDetector detector(sesame::perception::DetectorConfig{});
  sesame::mathx::Rng rng(mix64(seed ^ 0x9e3779b97f4a7c15ULL));

  // The EDDI does not expose its monitors, so the per-monitor probes get
  // design-time assets built the way MissionRunner builds them: a SafeML
  // reference across the validated altitude band and a DeepKnowledge
  // verifier MLP trained in-band and analysed against the high regime.
  s.reference.resize(sesame::perception::FrameFeatures::kNumFeatures);
  for (int i = 0; i < 400; ++i) {
    const auto v = detector
                       .frame_features(rng.uniform(0.7 * band, 1.6 * band), rng)
                       .as_vector();
    for (std::size_t k = 0; k < v.size(); ++k) s.reference[k].push_back(v[k]);
  }
  std::vector<std::vector<double>> train, targets, shifted;
  for (int i = 0; i < 200; ++i) {
    train.push_back(detection_features(detector,
                                       rng.uniform(0.7 * band, 1.6 * band),
                                       rng.uniform(0.6, 0.999), rng));
    targets.push_back({1.0});
    shifted.push_back(detection_features(detector, rng.uniform(50.0, 75.0),
                                         rng.uniform(0.2, 0.9), rng));
  }
  s.model = std::make_shared<sesame::deepknowledge::Mlp>(
      std::vector<std::size_t>{PersonDetector::kDetectionFeatureCount, 8, 1},
      rng);
  for (int epoch = 0; epoch < 3; ++epoch) {
    s.model->train_epoch(train, targets, 0.05, rng);
  }
  s.analyzer = std::make_shared<sesame::deepknowledge::Analyzer>(
      *s.model, train, shifted);

  // Runtime inputs of an airborne UAV, one per tick.
  const std::size_t n = std::max(calls, s.cfg.safeml.window + kDkWindow);
  s.inputs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& in = s.inputs[i];
    in.telemetry.battery_soc = 1.0 - 2e-4 * static_cast<double>(i);
    in.telemetry.battery_temp_c = 25.0 + 1e-3 * static_cast<double>(i);
    in.telemetry.processor_temp_c = 55.0;
    in.frame_features = detector.frame_features(alt, rng).as_vector();
    in.detection_features = {detection_features(
        detector, alt,
        std::clamp(rng.normal(detector.detection_probability(alt), 0.08), 0.01,
                   0.999),
        rng)};
    in.altitude_band = sinadra::AltitudeBand::kLow;
    in.visibility = sinadra::Visibility::kGood;
    in.density = sinadra::PersonDensity::kDense;
    in.nearby_uav_available = true;
  }
  s.grounded = s.inputs;
  for (auto& in : s.grounded) {
    in.telemetry.processor_temp_c = 45.0;
    in.frame_features.clear();
    in.detection_features.clear();
  }
}

EddiProbe::~EddiProbe() = default;

double EddiProbe::replay_s(std::vector<eddi::UavEddi>& eddis,
                           const sesame::platform::RunnerResult& result) {
  const State& s = *state_;
  volatile double keep = 0.0;
  const auto t0 = Clock::now();
  for (auto& e : eddis) {
    const auto& records = result.series.at(e.uav_name());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& in = features_present(records[i]) ? s.inputs : s.grounded;
      keep = keep + e.tick(in[i % in.size()]).sar_uncertainty;
    }
  }
  return seconds_since(t0);
}

MonitorProbes EddiProbe::measure() {
  State& s = *state_;
  const std::size_t calls = s.calls;
  const std::size_t n = s.inputs.size();
  MonitorProbes probes;

  sesame::safeml::Monitor monitor(s.cfg.safeml, s.reference);
  for (std::size_t i = 0; i < s.cfg.safeml.window; ++i) {
    monitor.push(s.inputs[i].frame_features);
  }
  probes.safeml_us = time_per_call_us(calls, [&](std::size_t i) {
    monitor.push(s.inputs[i % n].frame_features);
    return monitor.assess()->confidence;
  });

  std::vector<std::vector<std::vector<double>>> windows;
  for (std::size_t i = 0; i + kDkWindow <= n && windows.size() < calls; ++i) {
    std::vector<std::vector<double>> w;
    for (std::size_t k = 0; k < kDkWindow; ++k) {
      w.push_back(s.inputs[i + k].detection_features.front());
    }
    windows.push_back(std::move(w));
  }
  probes.deepknowledge_us = time_per_call_us(calls, [&](std::size_t i) {
    return s.analyzer->assess(*s.model, windows[i % windows.size()])
        .uncertainty;
  });

  const sesame::safedrones::ReliabilityMonitor reliability(s.cfg.reliability);
  probes.safedrones_us = time_per_call_us(calls, [&](std::size_t i) {
    return reliability
        .evaluate_prospective(s.inputs[i % n].telemetry,
                              s.cfg.reliability_horizon_s)
        .probability_of_failure;
  });

  // SINADRA evidence changes rarely within a run: the SafeML band moves
  // every 16 ticks here.
  const sinadra::SarRiskModel risk(s.cfg.sinadra);
  probes.sinadra_us = time_per_call_us(calls, [&](std::size_t i) {
    sinadra::SituationEvidence e;
    e.altitude = sinadra::AltitudeBand::kLow;
    e.visibility = sinadra::Visibility::kGood;
    e.density = sinadra::PersonDensity::kDense;
    e.safeml = (i / 16) % 2 == 0 ? sinadra::PerceptionConfidence::kHigh
                                 : sinadra::PerceptionConfidence::kMedium;
    e.deepknowledge = sinadra::PerceptionConfidence::kHigh;
    return risk.assess(e).criticality;
  });
  return probes;
}

}  // namespace perfbench
