// Design-time calibration of the SafeML monitor.
//
// The monitor maps a raw statistical distance onto a confidence via a
// `full_scale` parameter; picking it by hand is fragile because the
// no-shift ("self") distance of a finite window is measure-, window- and
// data-dependent. This routine draws in-domain windows from a caller's
// sampler, measures their distance to the reference as the monitor
// aggregates it, and sizes the scale so that in-domain windows land
// at/above the High-confidence threshold — the calibration step a
// deployment runs once at design time, alongside model training.
#pragma once

#include <functional>
#include <vector>

#include "sesame/safeml/monitor.hpp"

namespace sesame::safeml {

struct CalibrationReport {
  MonitorConfig config;          ///< ready-to-use monitor configuration
  double self_distance_p50 = 0.0;  ///< in-domain self-distance median
  double self_distance_p95 = 0.0;  ///< ... and 95th percentile (noise floor)
};

/// Fills one in-domain window: `window` holds one empty vector per
/// reference feature on entry, and must hold `config.window` values in
/// each on return.
using WindowSampler =
    std::function<void(std::vector<std::vector<double>>& window)>;

/// Calibrates `base` (its measure, window and thresholds; its full_scale
/// is ignored) against multi-feature reference data (same layout as
/// Monitor's constructor) over `trials` sampled windows. The returned
/// full_scale places the p95 self-distance exactly at the High threshold
/// (floored at 1e-9), so in-domain windows classify High with ~95%
/// probability. Throws std::invalid_argument on empty reference, a
/// feature smaller than the window, window < 2, trials < 10, thresholds
/// outside 0 < low < high < 1, or a sampler that fills a window wrongly.
CalibrationReport calibrate_monitor(
    const MonitorConfig& base,
    const std::vector<std::vector<double>>& reference, int trials,
    const WindowSampler& sample);

}  // namespace sesame::safeml
