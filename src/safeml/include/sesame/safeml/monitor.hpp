// SafeML runtime monitor.
//
// Holds per-feature reference samples captured from the ML model's training
// data and compares a sliding window of runtime feature values against them.
// The aggregated statistical distance maps to a confidence in the ML
// model's output; ConSerts consume the confidence level to decide whether
// perception-based guarantees (e.g. "vision-based navigation < 1 m") hold.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sesame/safeml/distances.hpp"

namespace sesame::safeml {

/// Discrete confidence levels reported to ConSerts.
enum class ConfidenceLevel { kHigh, kMedium, kLow };

std::string confidence_level_name(ConfidenceLevel c);

/// One monitor verdict.
struct Assessment {
  double dissimilarity = 0.0;  ///< aggregated distance across features
  double confidence = 1.0;     ///< 1 - normalized dissimilarity, in [0, 1]
  ConfidenceLevel level = ConfidenceLevel::kHigh;
  std::size_t window_size = 0;  ///< samples the verdict is based on
};

/// Monitor configuration.
struct MonitorConfig {
  Measure measure = Measure::kKolmogorovSmirnov;
  std::size_t window = 64;  ///< sliding-window length (per feature)
  /// Dissimilarity value mapping to confidence 0. KS/Kuiper are already in
  /// [0,1]/[0,2]; for unbounded measures (Wasserstein/AD) choose the scale
  /// from training-time calibration.
  double full_scale = 1.0;
  double high_threshold = 0.75;  ///< confidence >= this -> High
  double low_threshold = 0.40;   ///< confidence < this -> Low
};

/// Sliding-window distribution-shift monitor over one or more features.
/// A push updates running sums over the pooled reference and window, so
/// assess() costs O(features); its verdicts are bit-identical to
/// distance_sorted() over the sorted reference and window.
class Monitor {
 public:
  /// `reference` holds one training-time sample per feature (all non-empty,
  /// same feature count as runtime pushes). Throws std::invalid_argument on
  /// empty/invalid configuration.
  Monitor(MonitorConfig config, std::vector<std::vector<double>> reference);

  std::size_t num_features() const noexcept { return pooled_.size(); }
  const MonitorConfig& config() const noexcept { return config_; }

  /// Pushes one runtime observation (one value per feature), evicting the
  /// oldest once the window is full. Throws std::invalid_argument on a
  /// feature-count mismatch or a non-finite value (the sorted window needs
  /// a total order); the window is then left unchanged.
  void push(const std::vector<double>& features);

  /// Number of runtime observations currently buffered.
  std::size_t buffered() const noexcept;

  /// True once the window is full and assessments are meaningful.
  bool ready() const noexcept;

  /// Assesses the current window. Before `ready()`, returns nullopt.
  std::optional<Assessment> assess() const;

  /// Per-feature distances of the current window (diagnostics: which input
  /// channel drifted). Empty before `ready()`.
  std::vector<double> per_feature_dissimilarity() const;

  /// Clears the runtime window (e.g. after a mode change).
  void reset();

 private:
  /// One feature's reference and current window merged into one ascending
  /// sequence (reference copies first among equal values), with the
  /// measure's in-order running statistic at every position. The term of
  /// the ECDF walk that distance_sorted() emits for a distinct value sits
  /// at the last position holding that value; the other positions of a run
  /// of equal values add nothing. A push changes the terms only from the
  /// position before the first element it moved, so it re-adds them from
  /// there, resuming from the statistic cached one position earlier.
  struct Pooled {
    std::vector<double> value;
    std::vector<std::uint8_t> from_reference;
    /// Reference copies at positions <= k.
    std::vector<std::size_t> reference_count;
    /// Running sum (running max for KS, max of fa - fb for Kuiper) after
    /// the term at position k.
    std::vector<double> stat;
    /// Kuiper only: running max of fb - fa.
    std::vector<double> stat2;
    /// fa[i] = i / reference size: the walk's divisions, tabulated.
    std::vector<double> fa;
  };

  MonitorConfig config_;
  std::vector<Pooled> pooled_;  ///< one per feature
  /// fb_[j] = j / window, shared by all features.
  std::vector<double> fb_;
  /// Arrival-order ring of the last `window` observations (row = one
  /// observation, one column per feature); `oldest_` is the next row to
  /// evict once `buffered_` reaches the window.
  std::vector<double> fifo_;
  std::size_t oldest_ = 0;
  std::size_t buffered_ = 0;

  /// Re-adds the terms of `p` from position `from` to the end.
  void resum(Pooled& p, std::size_t from);
  /// The measure's value from the running statistic at the last position.
  double feature_distance(const Pooled& p) const;
  ConfidenceLevel classify(double confidence) const;
};

}  // namespace sesame::safeml
