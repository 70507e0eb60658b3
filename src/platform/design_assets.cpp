#include "sesame/platform/design_assets.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "sesame/perception/detector.hpp"
#include "sesame/platform/mission_runner.hpp"
#include "sesame/safeml/calibration.hpp"

namespace sesame::platform {

namespace {
// The design RNG stream's seed. Fixed, and salted apart from every world
// seed the way the chaos schedules are, so the assets depend on no run's
// seed or draws: runs of any campaign seed share one design.
constexpr std::uint64_t kDesignSalt = 0xDE51D0A55E7DE51DULL;
}  // namespace

bool DesignInputs::operator==(const DesignInputs& o) const noexcept {
  return std::bit_cast<std::uint64_t>(descend_altitude_m) ==
             std::bit_cast<std::uint64_t>(o.descend_altitude_m) &&
         safeml_window == o.safeml_window;
}

DesignInputs design_inputs(const RunnerConfig& config) {
  return {config.descend_altitude_m, config.eddi.safeml.window};
}

std::shared_ptr<const DesignAssets> build_design_assets(
    const RunnerConfig& config) {
  const DesignInputs in = design_inputs(config);
  mathx::Rng rng(kDesignSalt);
  const double band = in.descend_altitude_m;
  // The mission's detector model (SarMission's default configuration).
  const perception::PersonDetector detector{perception::DetectorConfig{}};

  // Training-time reference: frame features captured across the validated
  // low-altitude band (the detector's training domain). A single-altitude
  // reference would make SafeML flag a 2 m altitude change as drift.
  std::vector<std::vector<double>> reference(
      perception::FrameFeatures::kNumFeatures);
  for (int i = 0; i < 400; ++i) {
    const double alt = rng.uniform(0.7 * band, 1.6 * band);
    const auto v = detector.frame_features(alt, rng).as_vector();
    for (std::size_t k = 0; k < v.size(); ++k) reference[k].push_back(v[k]);
  }

  // The platform deployment pins the Wasserstein measure: KS saturates at
  // 1.0, which leaves too little contrast between the band-internal
  // variation of clean flight and a genuine altitude-regime shift. The
  // scale is calibrated below, so the measure's units cancel out.
  safeml::MonitorConfig monitor;
  monitor.measure = safeml::Measure::kWasserstein;
  monitor.window = in.safeml_window;
  // Confidence bands for the calibrated scale: clean single-altitude
  // windows sit ~p95 (-> confidence 0.6, classified High); the
  // high-altitude regime lands several band-widths out (-> near 0).
  monitor.high_threshold = 0.60;
  monitor.low_threshold = 0.30;

  // SafeML calibration: runtime windows come from a *single* altitude at a
  // time while the reference spans the validated band, so the no-drift
  // self-distance is nonzero. Size full_scale from the p95 self-distance
  // of single-altitude windows inside the band, exactly as a deployment
  // would calibrate against held-out validation flights.
  monitor = safeml::calibrate_monitor(
                monitor, reference, 60,
                [&](std::vector<std::vector<double>>& window) {
                  const double alt = rng.uniform(0.8 * band, 1.4 * band);
                  for (std::size_t i = 0; i < in.safeml_window; ++i) {
                    const auto v = detector.frame_features(alt, rng).as_vector();
                    for (std::size_t k = 0; k < v.size(); ++k) {
                      window[k].push_back(v[k]);
                    }
                  }
                })
                .config;

  // DeepKnowledge: a small detector-verifier MLP trained on low-altitude
  // detection features, analyzed against the high-altitude (shifted)
  // regime. One model per vehicle type, shared across the fleet.
  std::vector<std::vector<double>> dk_train, dk_targets, dk_shifted;
  for (int i = 0; i < 200; ++i) {
    perception::Detection d;
    d.confidence = rng.uniform(0.6, 0.999);
    // Training domain: the low-altitude band the detector was validated
    // at; the shifted domain is the high-altitude regime.
    const double train_alt = rng.uniform(0.7 * band, 1.6 * band);
    dk_train.push_back(detector.detection_features(d, train_alt, rng));
    dk_targets.push_back({1.0});
    d.confidence = rng.uniform(0.2, 0.9);
    dk_shifted.push_back(
        detector.detection_features(d, rng.uniform(50.0, 75.0), rng));
  }
  deepknowledge::Mlp model(
      {perception::PersonDetector::kDetectionFeatureCount, 8, 1}, rng);
  for (int epoch = 0; epoch < 3; ++epoch) {
    model.train_epoch(dk_train, dk_targets, 0.05, rng);
  }
  deepknowledge::Analyzer analyzer(model, dk_train, dk_shifted);

  // DK in-domain baseline: coverage uncertainty of single-altitude windows
  // inside the validated band (mirrors the SafeML calibration above).
  double acc = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const double alt = rng.uniform(0.8 * band, 1.4 * band);
    std::vector<std::vector<double>> window;
    for (int i = 0; i < 16; ++i) {
      perception::Detection d;
      d.confidence = std::clamp(
          rng.normal(detector.detection_probability(alt), 0.08), 0.01, 0.999);
      window.push_back(detector.detection_features(d, alt, rng));
    }
    acc += analyzer.assess(model, window).uncertainty;
  }

  return std::make_shared<const DesignAssets>(
      DesignAssets{in, std::move(reference), monitor, std::move(model),
                   std::move(analyzer), acc / trials});
}

std::shared_ptr<const DesignAssets> DesignLibrary::get(
    const RunnerConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!assets_ || assets_->inputs != design_inputs(config)) {
    ++builds_;
    assets_ = build_design_assets(config);
  }
  return assets_;
}

std::uint64_t DesignLibrary::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

DesignLibrary& design_library() {
  static DesignLibrary library;
  return library;
}

}  // namespace sesame::platform
