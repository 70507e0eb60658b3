#include "sesame/conserts/assurance_trace.hpp"

namespace sesame::conserts {

AssuranceTrace::AssuranceTrace(const ConSertNetwork& network)
    : network_(network), current_(network_.consert_count(), CompiledNetwork::kNone) {}

std::string AssuranceTrace::label(std::size_t guarantee) const {
  return guarantee == CompiledNetwork::kNone ? std::string{}
                                             : network_.guarantee_name(guarantee);
}

void AssuranceTrace::evaluate(double time_s) {
  network_.evaluate();
  ++evaluations_;
  for (std::size_t c = 0; c < current_.size(); ++c) {
    const std::size_t now = network_.best(c);
    if (current_[c] != now) {
      transitions_.push_back(
          {time_s, network_.consert_name(c), label(current_[c]), label(now)});
      current_[c] = now;
    }
  }
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
  // A name outside the network reads as the default, like one never granted.
  for (std::size_t c = 0; c < current_.size(); ++c) {
    if (network_.consert_name(c) == consert) return label(current_[c]);
  }
  return {};
}

void AssuranceTrace::clear() {
  current_.assign(current_.size(), CompiledNetwork::kNone);
  transitions_.clear();
  evaluations_ = 0;
}

}  // namespace sesame::conserts
