// Runtime assurance trace.
//
// Shifting assurance to runtime (the ConSerts premise) obliges the system
// to keep an evidence trail: which guarantees were in force when, and what
// evidence changes moved them. The recorder owns the compiled network,
// stores a transition whenever a ConSert's best guarantee changes, and
// produces the audit timeline a post-mission safety review replays.
#pragma once

#include <string>
#include <vector>

#include "sesame/conserts/consert.hpp"

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
  /// Compiles the network, which must be fully built: later add()s are not
  /// seen. Throws like ConSertNetwork::evaluation_order on cycles or
  /// unknown demands.
  explicit AssuranceTrace(const ConSertNetwork& network);

  /// The compiled network: set evidence here before evaluate(), read
  /// grants and best guarantees here after it.
  CompiledNetwork& network() noexcept { return network_; }

  /// Evaluates the network over its current evidence at `time_s` and
  /// records any best-guarantee transitions, in ConSert-name order.
  void evaluate(double time_s);

  const std::vector<GuaranteeTransition>& transitions() const noexcept {
    return transitions_;
  }

  /// Transitions of one ConSert only (copy).
  std::vector<GuaranteeTransition> transitions_of(
      const std::string& consert) const;

  /// The guarantee currently in force for a ConSert (empty = default, also
  /// for a name that is not in the network).
  std::string current(const std::string& consert) const;

  std::size_t evaluations() const noexcept { return evaluations_; }

  void clear();

 private:
  CompiledNetwork network_;
  /// Best guarantee id per ConSert id as last recorded (kNone = default).
  std::vector<std::size_t> current_;
  std::vector<GuaranteeTransition> transitions_;
  std::size_t evaluations_ = 0;

  std::string label(std::size_t guarantee) const;
};

}  // namespace sesame::conserts
