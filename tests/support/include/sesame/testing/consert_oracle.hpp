// String-keyed ConSert evaluation: the test oracle for CompiledNetwork.
//
// Evaluates a ConSertNetwork by walking its condition trees directly over
// a name-keyed evidence map and a set of (consert, guarantee) grants, in
// ConSertNetwork::evaluation_order(). It shares no code with the compiled
// postfix programs the mission runs, so agreement between the two on
// generated networks is evidence that the compiler is right. No product
// target links it.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/uav_network.hpp"

namespace sesame::conserts {

/// Runtime-evidence values plus the guarantees currently provided by
/// already-evaluated ConSerts.
class EvaluationContext {
 public:
  /// Sets a runtime-evidence value (unset evidence evaluates to false).
  void set_evidence(const std::string& name, bool value);
  bool evidence(const std::string& name) const;

  /// Records that `consert` currently provides `guarantee`.
  void grant(const std::string& consert, const std::string& guarantee);
  bool granted(const std::string& consert, const std::string& guarantee) const;

  void clear_grants();

 private:
  std::map<std::string, bool> evidence_;
  std::set<std::pair<std::string, std::string>> grants_;
};

/// Whether `condition` holds in `ctx`.
bool evaluate(const Condition& condition, const EvaluationContext& ctx);

/// The names of `consert`'s guarantees whose conditions hold in `ctx`.
std::vector<std::string> satisfied(const ConSert& consert,
                                   const EvaluationContext& ctx);

/// The best (lowest-rank, first declared on a tie) satisfied guarantee.
std::optional<std::string> best(const ConSert& consert,
                                const EvaluationContext& ctx);

/// Result of evaluating a network.
struct NetworkEvaluation {
  /// Every granted (consert, guarantee) pair.
  std::set<std::pair<std::string, std::string>> grants;
  /// Best guarantee per ConSert (absent = only the implicit default).
  std::map<std::string, std::string> best;
  /// Evaluation order used.
  std::vector<std::string> order;
};

/// Evaluates the whole network against the evidence in `ctx` (grants in
/// `ctx` are cleared first). Throws like
/// ConSertNetwork::evaluation_order on demand cycles or unknown demands.
NetworkEvaluation evaluate(const ConSertNetwork& network,
                           EvaluationContext& ctx);

/// Writes all evidence flags of one UAV into the context.
void apply_evidence(EvaluationContext& ctx, const std::string& uav,
                    const UavEvidence& evidence);

/// Maps a network evaluation onto the action for one UAV.
UavAction uav_action(const NetworkEvaluation& eval, const std::string& uav);

}  // namespace sesame::conserts
