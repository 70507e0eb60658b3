#include "sesame/conserts/assurance_trace.hpp"

#include <stdexcept>

namespace sesame::conserts {

AssuranceTrace::AssuranceTrace(const ConSertNetwork& network)
    : names_(network.names()), cache_(network) {}

NetworkEvaluation AssuranceTrace::evaluate(EvaluationContext& ctx,
                                           double time_s) {
  const NetworkEvaluation eval = cache_.evaluate(ctx);
  ++evaluations_;
  for (const auto& name : names_) {
    const auto it = eval.best.find(name);
    const std::string now = it == eval.best.end() ? std::string{} : it->second;
    auto& prev = current_[name];
    if (prev != now) {
      transitions_.push_back({time_s, name, prev, now});
      prev = now;
    }
  }
  return eval;
}

std::vector<GuaranteeTransition> AssuranceTrace::transitions_of(
    const std::string& consert) const {
  std::vector<GuaranteeTransition> out;
  for (const auto& t : transitions_) {
    if (t.consert == consert) out.push_back(t);
  }
  return out;
}

std::string AssuranceTrace::current(const std::string& consert) const {
  const auto it = current_.find(consert);
  return it == current_.end() ? std::string{} : it->second;
}

void AssuranceTrace::clear() {
  current_.clear();
  transitions_.clear();
  evaluations_ = 0;
}

}  // namespace sesame::conserts
