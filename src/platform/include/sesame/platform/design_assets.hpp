// Design-time EDDI assets: what the paper's monitors are trained and
// calibrated with before flight, not once per sortie.
//
// One immutable bundle holds the SafeML training reference and its
// calibrated monitor configuration, the DeepKnowledge detector-verifier MLP
// with its design-time Analyzer, and the DK in-domain uncertainty baseline.
// A campaign builds it once, before its worker pool starts, and hands every
// run the same `shared_ptr<const DesignAssets>`; a runner given none builds
// its own with the same function, so both paths fly identical runs.
//
// The build draws from a fixed design seed on its own RNG stream, never
// from a run's world RNG or its seed: the assets are a pure function of the
// few configuration fields they read (DesignInputs).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sesame/deepknowledge/analysis.hpp"
#include "sesame/deepknowledge/mlp.hpp"
#include "sesame/safeml/monitor.hpp"

namespace sesame::platform {

struct RunnerConfig;

/// The RunnerConfig fields the design build reads. Assets built for one
/// value serve every config with an equal value.
struct DesignInputs {
  /// SafeML reference and DK training band: [0.7, 1.6] x this altitude;
  /// calibration windows: [0.8, 1.4] x it.
  double descend_altitude_m = 0.0;
  /// SafeML sliding-window length (eddi.safeml.window).
  std::size_t safeml_window = 0;

  bool operator==(const DesignInputs&) const = default;
};

/// The inputs `config` asks of a design build.
DesignInputs design_inputs(const RunnerConfig& config);

struct DesignAssets {
  DesignInputs inputs;
  /// SafeML training reference, one sample vector per frame feature.
  std::vector<std::vector<double>> safeml_reference;
  /// Calibrated SafeML monitor configuration (Wasserstein, full_scale
  /// from the in-band p95 self-distance).
  safeml::MonitorConfig safeml;
  deepknowledge::Mlp dk_model;
  deepknowledge::Analyzer dk_analyzer;  ///< built against dk_model
  /// Mean DK coverage uncertainty of in-band windows.
  double dk_uncertainty_baseline = 0.0;
};

/// Builds the design-time assets `config` needs (SESAME runs): a pure
/// function of design_inputs(config), drawn from the fixed design seed.
std::shared_ptr<const DesignAssets> build_design_assets(
    const RunnerConfig& config);

}  // namespace sesame::platform
