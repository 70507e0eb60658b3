// Conditional Safety Certificates (ConSerts) runtime engine.
//
// ConSerts (Reich et al., SAFECOMP 2020) shift part of the safety argument
// to runtime: each component ships a certificate whose *guarantees* are
// conditional on *runtime evidence* (monitored boolean conditions) and on
// *demands* — guarantees that other components' ConSerts must currently
// provide. At runtime the network is evaluated bottom-up; every ConSert
// offers its highest-priority satisfied guarantee, and the top level maps
// to safe actions (Continue Mission / Hold / Return to Base / Emergency
// Land — paper Fig. 1).
//
// This module is the paper's integrating technology: the EDDI layer feeds
// evidence from SafeDrones / SafeML / DeepKnowledge / SINADRA / Security
// EDDI into a ConSert network built with these primitives.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace sesame::conserts {

class Condition;
using ConditionPtr = std::shared_ptr<const Condition>;

/// Boolean condition tree over runtime evidence and demands. Immutable
/// once built; ConSerts share subtrees through ConditionPtr. The accessors
/// are a read-only view of the tree for compilers and exporters.
class Condition {
 public:
  enum class Kind { kEvidence, kDemand, kConstant, kAllOf, kAnyOf, kNot };

  Kind kind() const noexcept { return kind_; }
  /// Evidence name (kEvidence) or demanded ConSert (kDemand).
  const std::string& name() const noexcept { return name_; }
  /// Demanded guarantee (kDemand).
  const std::string& guarantee() const noexcept { return guarantee_; }
  /// Constant value (kConstant).
  bool value() const noexcept { return value_; }
  /// Operands of a gate (kAllOf/kAnyOf: one or more; kNot: exactly one).
  const std::vector<ConditionPtr>& children() const noexcept {
    return children_;
  }

  /// Names of runtime evidence referenced beneath this node.
  void collect_evidence(std::set<std::string>& out) const;
  /// (consert, guarantee) demands referenced beneath this node.
  void collect_demands(std::set<std::pair<std::string, std::string>>& out) const;

  /// Leaf: a runtime-evidence flag.
  static ConditionPtr evidence(std::string name);
  /// Leaf: a demand on another ConSert's guarantee.
  static ConditionPtr demand(std::string consert, std::string guarantee);
  /// Constant (used for unconditional/default guarantees).
  static ConditionPtr constant(bool value);
  /// Conjunction / disjunction / negation.
  static ConditionPtr all_of(std::vector<ConditionPtr> children);
  static ConditionPtr any_of(std::vector<ConditionPtr> children);
  static ConditionPtr negate(ConditionPtr child);

 private:
  Kind kind_;
  std::string name_;       ///< evidence name, or the demanded ConSert
  std::string guarantee_;  ///< demanded guarantee
  bool value_;             ///< constant value
  std::vector<ConditionPtr> children_;

  Condition(Kind kind, std::string name, std::string guarantee, bool value,
            std::vector<ConditionPtr> children)
      : kind_(kind),
        name_(std::move(name)),
        guarantee_(std::move(guarantee)),
        value_(value),
        children_(std::move(children)) {}
  static ConditionPtr gate(Kind kind, std::vector<ConditionPtr> children);
};

/// A conditional guarantee. Lower `rank` = stronger/preferred guarantee;
/// the ConSert provides the satisfied guarantee with the smallest rank.
struct Guarantee {
  std::string name;
  int rank = 0;
  ConditionPtr condition;
};

/// One component's conditional safety certificate.
class ConSert {
 public:
  explicit ConSert(std::string name);

  const std::string& name() const noexcept { return name_; }

  /// Adds a guarantee; names must be unique within the ConSert, and the
  /// condition must be non-null.
  ConSert& add_guarantee(std::string name, int rank, ConditionPtr condition);

  const std::vector<Guarantee>& guarantees() const noexcept {
    return guarantees_;
  }
  bool has_guarantee(const std::string& name) const;

 private:
  std::string name_;
  std::vector<Guarantee> guarantees_;
};

/// A hierarchical network of ConSerts evaluated bottom-up.
class ConSertNetwork {
 public:
  /// Adds a ConSert; names must be unique.
  void add(ConSert consert);

  bool contains(const std::string& name) const;
  const ConSert& at(const std::string& name) const;
  std::size_t size() const noexcept { return conserts_.size(); }

  /// Names of all ConSerts in the network (sorted).
  std::vector<std::string> names() const;

  /// Topological (dependencies-first) evaluation order. Throws
  /// std::runtime_error on demand cycles or demands on unknown ConSerts.
  std::vector<std::string> evaluation_order() const;

 private:
  std::map<std::string, ConSert> conserts_;
};

/// A ConSertNetwork compiled once into index form, for the runtime tick.
///
/// Every evidence name referenced by a condition gets a slot, every
/// ConSert an id (its rank in names() order) and every guarantee an id,
/// and each guarantee's condition tree is flattened to a postfix program
/// over the evidence and grant bytes. evaluate() runs the programs in
/// evaluation (topological) order into a granted flag per guarantee and a
/// best-guarantee id per ConSert. A guarantee is granted when its
/// condition holds over the evidence and the grants of the ConSerts it
/// demands; the best guarantee is the granted one of lowest rank (first
/// declared on a tie). Names appear only at the edges: the lookups a
/// caller resolves once, and the labels it needs for reports. Unset
/// evidence is false.
class CompiledNetwork {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Compiles the network as it is now (later add()s are not seen). Throws
  /// like ConSertNetwork::evaluation_order on demand cycles or unknown
  /// ConSerts.
  explicit CompiledNetwork(const ConSertNetwork& network);

  /// Slot of a referenced evidence name; throws std::out_of_range when no
  /// condition reads it.
  std::size_t evidence_slot(const std::string& name) const;
  /// Id of a ConSert; throws std::out_of_range when unknown.
  std::size_t consert_id(const std::string& name) const;
  /// Id of one of `consert`'s guarantees; throws std::out_of_range when
  /// the ConSert has no such guarantee.
  std::size_t guarantee_id(std::size_t consert, const std::string& name) const;

  std::size_t consert_count() const noexcept { return consert_names_.size(); }
  std::size_t guarantee_count() const noexcept { return guarantees_.size(); }
  const std::string& consert_name(std::size_t consert) const {
    return consert_names_.at(consert);
  }
  const std::string& guarantee_name(std::size_t guarantee) const {
    return guarantees_.at(guarantee).name;
  }

  void set_evidence(std::size_t slot, bool value) {
    evidence_.at(slot) = value ? 1 : 0;
  }

  /// Evaluates every guarantee over the current evidence.
  void evaluate();

  /// Results of the last evaluate().
  bool granted(std::size_t guarantee) const {
    return granted_.at(guarantee) != 0;
  }
  /// The ConSert's best (lowest-rank, first declared on a tie) granted
  /// guarantee, or kNone when only the implicit default applies.
  std::size_t best(std::size_t consert) const { return best_.at(consert); }

 private:
  enum class Op : std::uint8_t { kEvidence, kGrant, kConstant, kAll, kAny, kNot };
  struct Instr {
    Op op;
    std::uint32_t arg;  ///< slot, guarantee id, constant value or arity
  };
  struct CompiledGuarantee {
    std::string name;
    int rank = 0;
    std::uint32_t begin = 0, end = 0;  ///< program_[begin, end)
  };

  std::vector<std::string> consert_names_;          ///< by ConSert id
  std::vector<std::size_t> first_guarantee_;        ///< by ConSert id, + end
  std::vector<std::size_t> order_;                  ///< ConSert ids, topological
  std::vector<std::string> evidence_names_;         ///< by slot, sorted
  std::vector<CompiledGuarantee> guarantees_;       ///< by guarantee id
  std::vector<Instr> program_;
  std::vector<std::uint8_t> evidence_;
  std::vector<std::uint8_t> granted_;
  std::vector<std::size_t> best_;
  std::vector<std::uint8_t> stack_;

  void emit(const Condition& c);
  std::size_t find_guarantee(std::size_t consert, const std::string& name) const;
};

}  // namespace sesame::conserts
