#include "sesame/testing/consert_oracle.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace sesame::conserts {

void EvaluationContext::set_evidence(const std::string& name, bool value) {
  evidence_[name] = value;
}

bool EvaluationContext::evidence(const std::string& name) const {
  const auto it = evidence_.find(name);
  return it != evidence_.end() && it->second;
}

void EvaluationContext::grant(const std::string& consert,
                              const std::string& guarantee) {
  grants_.insert({consert, guarantee});
}

bool EvaluationContext::granted(const std::string& consert,
                                const std::string& guarantee) const {
  return grants_.count({consert, guarantee}) > 0;
}

void EvaluationContext::clear_grants() { grants_.clear(); }

bool evaluate(const Condition& condition, const EvaluationContext& ctx) {
  const auto& children = condition.children();
  const auto holds = [&](const ConditionPtr& c) { return evaluate(*c, ctx); };
  switch (condition.kind()) {
    case Condition::Kind::kEvidence: return ctx.evidence(condition.name());
    case Condition::Kind::kDemand:
      return ctx.granted(condition.name(), condition.guarantee());
    case Condition::Kind::kConstant: return condition.value();
    case Condition::Kind::kAllOf:
      return std::all_of(children.begin(), children.end(), holds);
    case Condition::Kind::kAnyOf:
      return std::any_of(children.begin(), children.end(), holds);
    case Condition::Kind::kNot: return !holds(children.front());
  }
  return false;
}

std::vector<std::string> satisfied(const ConSert& consert,
                                   const EvaluationContext& ctx) {
  std::vector<std::string> out;
  for (const auto& g : consert.guarantees()) {
    if (evaluate(*g.condition, ctx)) out.push_back(g.name);
  }
  return out;
}

std::optional<std::string> best(const ConSert& consert,
                                const EvaluationContext& ctx) {
  const Guarantee* best_g = nullptr;
  for (const auto& g : consert.guarantees()) {
    if (!evaluate(*g.condition, ctx)) continue;
    if (!best_g || g.rank < best_g->rank) best_g = &g;
  }
  if (!best_g) return std::nullopt;
  return best_g->name;
}

NetworkEvaluation evaluate(const ConSertNetwork& network,
                           EvaluationContext& ctx) {
  ctx.clear_grants();
  NetworkEvaluation result;
  result.order = network.evaluation_order();
  for (const auto& name : result.order) {
    const ConSert& c = network.at(name);
    for (const auto& g : satisfied(c, ctx)) {
      ctx.grant(name, g);
      result.grants.insert({name, g});
    }
    if (const auto b = best(c, ctx); b.has_value()) result.best[name] = *b;
  }
  return result;
}

void apply_evidence(EvaluationContext& ctx, const std::string& uav,
                    const UavEvidence& e) {
  const std::pair<const char*, bool> fields[] = {
      {"gps_quality_good", e.gps_quality_good},
      {"no_security_attack", e.no_security_attack},
      {"vision_sensor_healthy", e.vision_sensor_healthy},
      {"safeml_confidence_high", e.safeml_confidence_high},
      {"comm_link_good", e.comm_link_good},
      {"nearby_uav_available", e.nearby_uav_available},
      {"reliability_high", e.reliability_high},
      {"reliability_medium", e.reliability_medium},
      {"reliability_low", e.reliability_low},
  };
  static_assert(std::size(fields) == kUavEvidenceFields);
  for (const auto& [field, value] : fields) {
    ctx.set_evidence(evidence_key(uav, field), value);
  }
}

UavAction uav_action(const NetworkEvaluation& eval, const std::string& uav) {
  const auto it = eval.best.find(uav_consert_names(uav).uav);
  if (it == eval.best.end()) return UavAction::kEmergencyLand;
  const char* const actions[] = {
      guarantees::kContinueExtended, guarantees::kContinue, guarantees::kHold,
      guarantees::kReturnToBase};
  for (std::size_t k = 0; k < std::size(actions); ++k) {
    if (it->second == actions[k]) return static_cast<UavAction>(k);
  }
  throw std::logic_error("uav_action: unexpected guarantee " + it->second);
}

}  // namespace sesame::conserts
