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
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace sesame::conserts {

class Condition;
using ConditionPtr = std::shared_ptr<const Condition>;

/// Context a condition tree is evaluated against: runtime-evidence values
/// plus the guarantees currently provided by already-evaluated ConSerts.
/// String-keyed: it serves ConSertNetwork::evaluate (the reference the
/// compiled network is tested against), explain_guarantee and design-time
/// tools; the runtime tick uses CompiledNetwork.
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

/// Boolean condition tree over runtime evidence and demands. Immutable
/// once built; ConSerts share subtrees through ConditionPtr.
class Condition {
 public:
  bool evaluate(const EvaluationContext& ctx) const;

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
  enum class Kind { kEvidence, kDemand, kConstant, kAllOf, kAnyOf, kNot };
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
  friend class CompiledNetwork;
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

  /// Evaluates all guarantees against the context; returns the satisfied
  /// guarantee names (the network grants all of them — a stronger
  /// guarantee subsumes weaker ones only if modelled so).
  std::vector<std::string> satisfied(const EvaluationContext& ctx) const;

  /// The best (lowest-rank) satisfied guarantee, if any.
  std::optional<std::string> best(const EvaluationContext& ctx) const;

 private:
  std::string name_;
  std::vector<Guarantee> guarantees_;
};

/// Result of evaluating a network.
struct NetworkEvaluation {
  /// Every granted (consert, guarantee) pair.
  std::set<std::pair<std::string, std::string>> grants;
  /// Best guarantee per ConSert (absent = only the implicit default).
  std::map<std::string, std::string> best;
  /// Evaluation order used (for diagnostics).
  std::vector<std::string> order;
};

/// Why a guarantee is currently not provided: the referenced runtime
/// evidence that evaluates false and the demands that are not granted.
/// For monotone (negation-free) conditions — all the Fig. 1 models — the
/// guarantee is satisfiable exactly when both lists are empty.
struct GuaranteeExplanation {
  std::string consert;
  std::string guarantee;
  bool satisfied = false;
  std::vector<std::string> missing_evidence;
  std::vector<std::pair<std::string, std::string>> missing_demands;
};

/// Explains one guarantee of one ConSert against a context (typically the
/// context after a network evaluation, so grants are populated). Throws
/// std::invalid_argument when the guarantee does not exist.
GuaranteeExplanation explain_guarantee(const ConSert& consert,
                                       const std::string& guarantee,
                                       const EvaluationContext& ctx);

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

  /// Evaluates the whole network against the evidence in `ctx` (grants in
  /// `ctx` are cleared first). Throws std::runtime_error on demand cycles
  /// or demands on unknown ConSerts. The string-keyed reference
  /// evaluation; CompiledNetwork gives the same results by index.
  NetworkEvaluation evaluate(EvaluationContext& ctx) const;

  /// Topological (dependencies-first) evaluation order. Computed on first
  /// use and cached until the next add(); evaluate() uses this, so the
  /// Kahn's-algorithm pass runs once per network shape instead of once per
  /// evaluation. Throws like evaluate() on cycles or unknown demands.
  const std::vector<std::string>& evaluation_order() const;

 private:
  std::map<std::string, ConSert> conserts_;
  // Cached evaluation_order(); mutable because caching is not observable.
  mutable std::vector<std::string> order_cache_;
  mutable bool order_dirty_ = true;

  std::vector<std::string> topological_order() const;
};

/// A ConSertNetwork compiled once into index form, for the runtime tick.
///
/// Every evidence name referenced by a condition gets a slot, every
/// ConSert an id (its rank in names() order) and every guarantee an id,
/// and each guarantee's condition tree is flattened to a postfix program
/// over the evidence and grant bytes. evaluate() runs the programs in
/// evaluation (topological) order into a granted flag per guarantee and a
/// best-guarantee id per ConSert, with the same results as
/// ConSertNetwork::evaluate over the same evidence. Names appear only at
/// the edges: the lookups a caller resolves once, and the labels it needs
/// for reports. Unset evidence is false.
class CompiledNetwork {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Compiles the network as it is now (later add()s are not seen). Throws
  /// like ConSertNetwork::evaluate on demand cycles or unknown ConSerts.
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
