#include "sesame/conserts/consert.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::conserts {

void Condition::collect_evidence(std::set<std::string>& out) const {
  if (kind_ == Kind::kEvidence) out.insert(name_);
  for (const auto& c : children_) c->collect_evidence(out);
}

void Condition::collect_demands(
    std::set<std::pair<std::string, std::string>>& out) const {
  if (kind_ == Kind::kDemand) out.insert({name_, guarantee_});
  for (const auto& c : children_) c->collect_demands(out);
}

ConditionPtr Condition::evidence(std::string name) {
  return ConditionPtr(new Condition(Kind::kEvidence, std::move(name), {}, false, {}));
}

ConditionPtr Condition::demand(std::string consert, std::string guarantee) {
  return ConditionPtr(new Condition(Kind::kDemand, std::move(consert),
                                    std::move(guarantee), false, {}));
}

ConditionPtr Condition::constant(bool value) {
  return ConditionPtr(new Condition(Kind::kConstant, {}, {}, value, {}));
}

ConditionPtr Condition::gate(Kind kind, std::vector<ConditionPtr> children) {
  if (children.empty()) {
    throw std::invalid_argument("ConSert gate condition without children");
  }
  for (const auto& c : children) {
    if (!c) throw std::invalid_argument("ConSert gate: null child");
  }
  return ConditionPtr(new Condition(kind, {}, {}, false, std::move(children)));
}

ConditionPtr Condition::all_of(std::vector<ConditionPtr> children) {
  return gate(Kind::kAllOf, std::move(children));
}

ConditionPtr Condition::any_of(std::vector<ConditionPtr> children) {
  return gate(Kind::kAnyOf, std::move(children));
}

ConditionPtr Condition::negate(ConditionPtr child) {
  return gate(Kind::kNot, {std::move(child)});
}

ConSert::ConSert(std::string name) : name_(std::move(name)) {
  if (name_.empty()) throw std::invalid_argument("ConSert: empty name");
}

ConSert& ConSert::add_guarantee(std::string name, int rank,
                                ConditionPtr condition) {
  if (!condition) throw std::invalid_argument("add_guarantee: null condition");
  if (has_guarantee(name)) {
    throw std::invalid_argument("add_guarantee: duplicate guarantee " + name);
  }
  guarantees_.push_back({std::move(name), rank, std::move(condition)});
  return *this;
}

bool ConSert::has_guarantee(const std::string& name) const {
  return std::any_of(guarantees_.begin(), guarantees_.end(),
                     [&](const Guarantee& g) { return g.name == name; });
}

void ConSertNetwork::add(ConSert consert) {
  const std::string name = consert.name();
  if (!conserts_.emplace(name, std::move(consert)).second) {
    throw std::invalid_argument("ConSertNetwork::add: duplicate " + name);
  }
}

bool ConSertNetwork::contains(const std::string& name) const {
  return conserts_.count(name) > 0;
}

std::vector<std::string> ConSertNetwork::names() const {
  std::vector<std::string> out;
  out.reserve(conserts_.size());
  for (const auto& [name, consert] : conserts_) {
    (void)consert;
    out.push_back(name);
  }
  return out;
}

const ConSert& ConSertNetwork::at(const std::string& name) const {
  const auto it = conserts_.find(name);
  if (it == conserts_.end()) {
    throw std::out_of_range("ConSertNetwork::at: " + name);
  }
  return it->second;
}

std::vector<std::string> ConSertNetwork::evaluation_order() const {
  // Kahn's algorithm over the demand graph (dependencies first).
  std::map<std::string, std::set<std::string>> deps;
  for (const auto& [name, consert] : conserts_) {
    std::set<std::string>& demanded_conserts = deps[name];
    std::set<std::pair<std::string, std::string>> demands;
    for (const auto& g : consert.guarantees()) {
      g.condition->collect_demands(demands);
    }
    for (const auto& [demanded, guarantee] : demands) {
      if (!conserts_.count(demanded)) {
        throw std::runtime_error("ConSertNetwork: '" + name +
                                 "' demands unknown ConSert '" + demanded + "'");
      }
      demanded_conserts.insert(demanded);
    }
  }
  std::vector<std::string> order;
  while (order.size() < conserts_.size()) {
    bool progressed = false;
    for (auto& [name, remaining] : deps) {
      if (std::find(order.begin(), order.end(), name) != order.end()) continue;
      const bool ready =
          std::all_of(remaining.begin(), remaining.end(), [&](const auto& d) {
            return std::find(order.begin(), order.end(), d) != order.end();
          });
      if (ready) {
        order.push_back(name);
        progressed = true;
      }
    }
    if (!progressed) {
      throw std::runtime_error("ConSertNetwork: demand cycle detected");
    }
  }
  return order;
}

namespace {

/// Position of `name` in the ascending vector `names`, or npos.
std::size_t index_in(const std::vector<std::string>& names,
                     const std::string& name) {
  const auto it = std::lower_bound(names.begin(), names.end(), name);
  if (it == names.end() || *it != name) return CompiledNetwork::kNone;
  return static_cast<std::size_t>(it - names.begin());
}

}  // namespace

CompiledNetwork::CompiledNetwork(const ConSertNetwork& network)
    : consert_names_(network.names()) {
  // Ids first: a condition may demand a guarantee of any ConSert.
  std::set<std::string> evidence;
  for (const auto& name : consert_names_) {
    first_guarantee_.push_back(guarantees_.size());
    for (const auto& g : network.at(name).guarantees()) {
      guarantees_.push_back({g.name, g.rank, 0, 0});
      g.condition->collect_evidence(evidence);
    }
  }
  first_guarantee_.push_back(guarantees_.size());
  evidence_names_.assign(evidence.begin(), evidence.end());
  for (const auto& name : network.evaluation_order()) {
    order_.push_back(consert_id(name));
  }
  for (std::size_t c = 0; c < consert_names_.size(); ++c) {
    const auto& source = network.at(consert_names_[c]).guarantees();
    for (std::size_t k = 0; k < source.size(); ++k) {
      CompiledGuarantee& g = guarantees_[first_guarantee_[c] + k];
      g.begin = static_cast<std::uint32_t>(program_.size());
      emit(*source[k].condition);
      g.end = static_cast<std::uint32_t>(program_.size());
    }
  }
  evidence_.assign(evidence_names_.size(), 0);
  granted_.assign(guarantees_.size(), 0);
  best_.assign(consert_names_.size(), kNone);
  stack_.assign(program_.size(), 0);  // a postfix program never nests deeper
}

void CompiledNetwork::emit(const Condition& c) {
  using Kind = Condition::Kind;
  switch (c.kind()) {
    case Kind::kEvidence:
      program_.push_back(
          {Op::kEvidence,
           static_cast<std::uint32_t>(index_in(evidence_names_, c.name()))});
      return;
    case Kind::kDemand: {
      // The demanded ConSert exists (evaluation_order() checked it); a
      // guarantee it does not offer is never granted.
      const std::size_t g = find_guarantee(consert_id(c.name()), c.guarantee());
      if (g == kNone) {
        program_.push_back({Op::kConstant, 0});
      } else {
        program_.push_back({Op::kGrant, static_cast<std::uint32_t>(g)});
      }
      return;
    }
    case Kind::kConstant:
      program_.push_back({Op::kConstant, c.value() ? 1u : 0u});
      return;
    case Kind::kAllOf:
    case Kind::kAnyOf:
    case Kind::kNot:
      for (const auto& child : c.children()) emit(*child);
      program_.push_back(
          {c.kind() == Kind::kAllOf   ? Op::kAll
           : c.kind() == Kind::kAnyOf ? Op::kAny
                                      : Op::kNot,
           static_cast<std::uint32_t>(c.children().size())});
      return;
  }
}

std::size_t CompiledNetwork::evidence_slot(const std::string& name) const {
  const std::size_t slot = index_in(evidence_names_, name);
  if (slot == kNone) {
    throw std::out_of_range("CompiledNetwork: no condition reads evidence " +
                            name);
  }
  return slot;
}

std::size_t CompiledNetwork::consert_id(const std::string& name) const {
  const std::size_t id = index_in(consert_names_, name);
  if (id == kNone) throw std::out_of_range("CompiledNetwork: unknown " + name);
  return id;
}

std::size_t CompiledNetwork::find_guarantee(std::size_t consert,
                                            const std::string& name) const {
  for (std::size_t g = first_guarantee_.at(consert);
       g < first_guarantee_.at(consert + 1); ++g) {
    if (guarantees_[g].name == name) return g;
  }
  return kNone;
}

std::size_t CompiledNetwork::guarantee_id(std::size_t consert,
                                          const std::string& name) const {
  const std::size_t g = find_guarantee(consert, name);
  if (g == kNone) {
    throw std::out_of_range("CompiledNetwork: " + consert_names_[consert] +
                            " has no guarantee " + name);
  }
  return g;
}

void CompiledNetwork::evaluate() {
  // Every demand reads a ConSert earlier in order_, so grants read below
  // are those of this evaluation.
  for (const std::size_t c : order_) {
    std::size_t best = kNone;
    for (std::size_t g = first_guarantee_[c]; g < first_guarantee_[c + 1]; ++g) {
      std::size_t sp = 0;
      for (std::uint32_t ip = guarantees_[g].begin; ip < guarantees_[g].end;
           ++ip) {
        const Instr in = program_[ip];
        switch (in.op) {
          case Op::kEvidence: stack_[sp++] = evidence_[in.arg]; break;
          case Op::kGrant: stack_[sp++] = granted_[in.arg]; break;
          case Op::kConstant: stack_[sp++] = static_cast<std::uint8_t>(in.arg); break;
          case Op::kAll: {
            sp -= in.arg;
            std::uint8_t v = 1;
            for (std::uint32_t k = 0; k < in.arg; ++k) v &= stack_[sp + k];
            stack_[sp++] = v;
            break;
          }
          case Op::kAny: {
            sp -= in.arg;
            std::uint8_t v = 0;
            for (std::uint32_t k = 0; k < in.arg; ++k) v |= stack_[sp + k];
            stack_[sp++] = v;
            break;
          }
          case Op::kNot: stack_[sp - 1] ^= 1; break;
        }
      }
      granted_[g] = stack_[0];
      if (granted_[g] != 0 &&
          (best == kNone || guarantees_[g].rank < guarantees_[best].rank)) {
        best = g;
      }
    }
    best_[c] = best;
  }
}

}  // namespace sesame::conserts
