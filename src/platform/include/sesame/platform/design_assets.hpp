// Design-time EDDI assets: what the paper's monitors are trained and
// calibrated with before flight, not once per sortie.
//
// One immutable bundle holds the SafeML training reference and its
// calibrated monitor configuration, the DeepKnowledge detector-verifier MLP
// with its design-time Analyzer, and the DK in-domain uncertainty baseline.
// The build draws from a fixed design seed on its own RNG stream, never
// from a run's world RNG or its seed: the assets are a pure function of the
// few configuration fields they read (DesignInputs). So one process builds
// a design once: the process-wide DesignLibrary keeps the last bundle it
// built, and every SESAME runner, campaign and service job with equal
// inputs reads the same `shared_ptr<const DesignAssets>`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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

  /// Equal bits, not equal values: -0.0 and 0.0 may build different
  /// assets, and a NaN altitude still names one design.
  bool operator==(const DesignInputs& o) const noexcept;
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
/// Production code reaches it only through a DesignLibrary.
std::shared_ptr<const DesignAssets> build_design_assets(
    const RunnerConfig& config);

/// A thread-safe, one-slot cache of the design-time asset bundle: it holds
/// the most recently requested design and replaces it on a miss. Every
/// preset flies the same design, so one slot is a hit for all of them, and
/// a client cycling through designs still leaves only one bundle here. The build runs under the lock, so concurrent first
/// requests share one build; a build that throws stores nothing. A replaced
/// bundle lives on in whoever still holds it.
class DesignLibrary {
 public:
  DesignLibrary() = default;
  DesignLibrary(const DesignLibrary&) = delete;
  DesignLibrary& operator=(const DesignLibrary&) = delete;

  /// The bundle for design_inputs(config), built on a miss.
  std::shared_ptr<const DesignAssets> get(const RunnerConfig& config);

  /// Builds started since construction.
  std::uint64_t builds() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const DesignAssets> assets_;  // guarded by mutex_
  std::uint64_t builds_ = 0;                    // guarded by mutex_
};

/// The process-wide library every SESAME runner draws its assets from.
DesignLibrary& design_library();

}  // namespace sesame::platform
