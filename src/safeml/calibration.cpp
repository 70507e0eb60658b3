#include "sesame/safeml/calibration.hpp"

#include <algorithm>
#include <stdexcept>

#include "sesame/mathx/stats.hpp"
#include "sesame/safeml/distances.hpp"

namespace sesame::safeml {

CalibrationReport calibrate_monitor(
    const MonitorConfig& base,
    const std::vector<std::vector<double>>& reference, int trials,
    const WindowSampler& sample) {
  if (reference.empty()) {
    throw std::invalid_argument("calibrate_monitor: no reference features");
  }
  for (const auto& f : reference) {
    if (f.size() < base.window) {
      throw std::invalid_argument(
          "calibrate_monitor: reference smaller than window");
    }
  }
  if (base.window < 2) {
    throw std::invalid_argument("calibrate_monitor: window < 2");
  }
  if (trials < 10) throw std::invalid_argument("calibrate_monitor: trials < 10");
  if (!(0.0 < base.low_threshold && base.low_threshold < base.high_threshold &&
        base.high_threshold < 1.0)) {
    throw std::invalid_argument("calibrate_monitor: bad thresholds");
  }

  // The reference is fixed across trials: sort it once and use the
  // sorted-input distance per trial window, aggregated across features as
  // the monitor does.
  std::vector<std::vector<double>> reference_sorted = reference;
  for (auto& r : reference_sorted) std::sort(r.begin(), r.end());
  std::vector<double> self_distances;
  self_distances.reserve(static_cast<std::size_t>(trials));
  std::vector<std::vector<double>> window(reference.size());
  for (int t = 0; t < trials; ++t) {
    for (auto& w : window) w.clear();
    sample(window);
    double total = 0.0;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      if (window[k].size() != base.window) {
        throw std::invalid_argument(
            "calibrate_monitor: sampler filled a window of the wrong size");
      }
      std::sort(window[k].begin(), window[k].end());
      total += distance_sorted(base.measure, reference_sorted[k], window[k]);
    }
    self_distances.push_back(total / static_cast<double>(reference.size()));
  }

  CalibrationReport report;
  report.self_distance_p50 = mathx::quantile(self_distances, 0.50);
  report.self_distance_p95 = mathx::quantile(self_distances, 0.95);
  report.config = base;
  // confidence(d) = 1 - d / full_scale; place the p95 self-distance at the
  // High boundary so in-domain windows classify High ~95% of the time.
  report.config.full_scale =
      std::max(1e-9, report.self_distance_p95 / (1.0 - base.high_threshold));
  return report;
}

}  // namespace sesame::safeml
