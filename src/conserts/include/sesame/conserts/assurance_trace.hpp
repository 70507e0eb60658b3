// Runtime assurance trace.
//
// Shifting assurance to runtime (the ConSerts premise) obliges the system
// to keep an evidence trail: which guarantees were in force when, and what
// evidence changes moved them. The recorder wraps network evaluation,
// stores a transition whenever a ConSert's best guarantee changes, and
// produces the audit timeline a post-mission safety review replays.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/evaluation_cache.hpp"

namespace sesame::conserts {

/// One best-guarantee transition of one ConSert.
struct GuaranteeTransition {
  double time_s = 0.0;
  std::string consert;
  /// Empty = no guarantee held (the implicit default applied).
  std::string from;
  std::string to;
};

class AssuranceTrace {
 public:
  /// The trace snapshots the network's membership and its per-ConSert
  /// input footprints: the network must be fully built before construction
  /// and not mutated afterwards. Evaluation runs through a
  /// CachedNetworkEvaluator, so unchanged evidence skips the condition-tree
  /// walks; results are identical to ConSertNetwork::evaluate.
  explicit AssuranceTrace(const ConSertNetwork& network);

  /// Evaluates the network at `time_s` and records any best-guarantee
  /// transitions. Returns the evaluation.
  NetworkEvaluation evaluate(EvaluationContext& ctx, double time_s);

  const std::vector<GuaranteeTransition>& transitions() const noexcept {
    return transitions_;
  }

  /// Transitions of one ConSert only (copy).
  std::vector<GuaranteeTransition> transitions_of(
      const std::string& consert) const;

  /// The guarantee currently in force for a ConSert (empty = default).
  std::string current(const std::string& consert) const;

  std::size_t evaluations() const noexcept { return evaluations_; }

  /// Evaluation-cache counters.
  std::size_t cache_hits() const noexcept { return cache_.hits(); }
  std::size_t cache_misses() const noexcept { return cache_.misses(); }

  void clear();

 private:
  std::vector<std::string> names_;  ///< network membership, snapshotted once
  CachedNetworkEvaluator cache_;
  std::map<std::string, std::string> current_;
  std::vector<GuaranteeTransition> transitions_;
  std::size_t evaluations_ = 0;
};

}  // namespace sesame::conserts
