// Tests for the ConSerts engine: condition algebra, guarantee selection,
// network composition/topological evaluation, the paper's Fig. 1 UAV
// network and the mission decider, all through CompiledNetwork (the path
// the mission runs), plus generated equivalence checks of the compiled
// network against the string-keyed oracle in tests/support.
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/conserts/assurance_trace.hpp"
#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/uav_network.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/testing/consert_oracle.hpp"

namespace cs = sesame::conserts;
namespace g = sesame::conserts::guarantees;

namespace {

/// Whether `condition` holds under `evidence` (unlisted evidence is
/// false), as the only guarantee of a ConSert "c" compiled beside a ConSert
/// "nav" that grants "accurate" exactly when evidence "fix" holds.
bool holds(cs::ConditionPtr condition,
           const std::map<std::string, bool>& evidence) {
  std::set<std::string> read{"fix"};
  condition->collect_evidence(read);
  cs::ConSertNetwork net;
  cs::ConSert nav("nav");
  nav.add_guarantee("accurate", 0, cs::Condition::evidence("fix"));
  net.add(std::move(nav));
  cs::ConSert c("c");
  c.add_guarantee("g", 0, std::move(condition));
  net.add(std::move(c));
  cs::CompiledNetwork compiled(net);
  for (const auto& [name, value] : evidence) {
    if (read.count(name) != 0) {
      compiled.set_evidence(compiled.evidence_slot(name), value);
    }
  }
  compiled.evaluate();
  const std::size_t id = compiled.consert_id("c");
  return compiled.granted(compiled.guarantee_id(id, "g"));
}

}  // namespace

TEST(Condition, EvidenceLeaf) {
  auto c = cs::Condition::evidence("x");
  EXPECT_FALSE(holds(c, {}));  // unset evidence is false
  EXPECT_TRUE(holds(c, {{"x", true}}));
  EXPECT_FALSE(holds(c, {{"x", false}}));
}

TEST(Condition, DemandLeaf) {
  auto c = cs::Condition::demand("nav", "accurate");
  EXPECT_FALSE(holds(c, {}));
  EXPECT_TRUE(holds(c, {{"fix", true}}));
  EXPECT_FALSE(holds(c, {{"fix", false}}));
  // A guarantee the demanded ConSert does not offer is never granted.
  EXPECT_FALSE(holds(cs::Condition::demand("nav", "exact"), {{"fix", true}}));
}

TEST(Condition, GatesAndConstants) {
  const std::map<std::string, bool> ev{{"a", true}, {"b", false}};
  auto a = cs::Condition::evidence("a");
  auto b = cs::Condition::evidence("b");
  EXPECT_FALSE(holds(cs::Condition::all_of({a, b}), ev));
  EXPECT_TRUE(holds(cs::Condition::any_of({a, b}), ev));
  EXPECT_TRUE(holds(cs::Condition::negate(b), ev));
  EXPECT_FALSE(holds(cs::Condition::negate(a), ev));
  EXPECT_TRUE(holds(cs::Condition::constant(true), {}));
  EXPECT_FALSE(holds(cs::Condition::constant(false), {}));
  EXPECT_THROW(cs::Condition::all_of({}), std::invalid_argument);
  EXPECT_THROW(cs::Condition::negate(nullptr), std::invalid_argument);
}

TEST(Condition, CollectsReferences) {
  auto c = cs::Condition::all_of(
      {cs::Condition::evidence("e1"),
       cs::Condition::any_of({cs::Condition::evidence("e2"),
                              cs::Condition::demand("cs1", "g1")})});
  std::set<std::string> evidence;
  c->collect_evidence(evidence);
  EXPECT_EQ(evidence.size(), 2u);
  std::set<std::pair<std::string, std::string>> demands;
  c->collect_demands(demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands.begin()->first, "cs1");
}

TEST(ConSert, GuaranteeSelectionByRank) {
  cs::ConSertNetwork net;
  cs::ConSert c("nav");
  c.add_guarantee("strong", 0, cs::Condition::evidence("good"));
  c.add_guarantee("weak", 5, cs::Condition::constant(true));
  net.add(std::move(c));
  cs::CompiledNetwork compiled(net);
  const std::size_t nav = compiled.consert_id("nav");
  const std::size_t strong = compiled.guarantee_id(nav, "strong");
  const std::size_t weak = compiled.guarantee_id(nav, "weak");
  compiled.evaluate();
  EXPECT_EQ(compiled.best(nav), weak);
  compiled.set_evidence(compiled.evidence_slot("good"), true);
  compiled.evaluate();
  EXPECT_EQ(compiled.best(nav), strong);
  EXPECT_TRUE(compiled.granted(strong));
  EXPECT_TRUE(compiled.granted(weak));
}

TEST(ConSert, NoGuaranteeSatisfied) {
  cs::ConSertNetwork net;
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::evidence("never"));
  net.add(std::move(c));
  cs::CompiledNetwork compiled(net);
  compiled.evaluate();
  const std::size_t x = compiled.consert_id("x");
  EXPECT_EQ(compiled.best(x), cs::CompiledNetwork::kNone);
  EXPECT_FALSE(compiled.granted(compiled.guarantee_id(x, "g")));
}

TEST(ConSert, Validation) {
  EXPECT_THROW(cs::ConSert(""), std::invalid_argument);
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::constant(true));
  EXPECT_THROW(c.add_guarantee("g", 1, cs::Condition::constant(true)),
               std::invalid_argument);
  EXPECT_THROW(c.add_guarantee("h", 1, nullptr), std::invalid_argument);
  EXPECT_TRUE(c.has_guarantee("g"));
  EXPECT_FALSE(c.has_guarantee("h"));
}

TEST(ConSertNetwork, EvaluatesDependenciesFirst) {
  cs::ConSertNetwork net;
  // Named so that name order and dependency order differ.
  cs::ConSert leafc("z_leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  cs::ConSert top("a_top");
  top.add_guarantee("safe", 0, cs::Condition::demand("z_leaf", "ok"));
  net.add(std::move(top));
  EXPECT_EQ(net.evaluation_order(),
            (std::vector<std::string>{"z_leaf", "a_top"}));

  cs::CompiledNetwork compiled(net);
  compiled.set_evidence(compiled.evidence_slot("sensor_ok"), true);
  compiled.evaluate();
  const std::size_t leaf = compiled.consert_id("z_leaf");
  const std::size_t top_id = compiled.consert_id("a_top");
  EXPECT_TRUE(compiled.granted(compiled.guarantee_id(leaf, "ok")));
  EXPECT_EQ(compiled.best(top_id), compiled.guarantee_id(top_id, "safe"));
}

TEST(ConSertNetwork, UnknownDemandThrows) {
  cs::ConSertNetwork net;
  cs::ConSert top("top");
  top.add_guarantee("g", 0, cs::Condition::demand("ghost", "x"));
  net.add(std::move(top));
  EXPECT_THROW(net.evaluation_order(), std::runtime_error);
}

TEST(ConSertNetwork, CycleDetection) {
  cs::ConSertNetwork net;
  cs::ConSert a("a"), b("b");
  a.add_guarantee("ga", 0, cs::Condition::demand("b", "gb"));
  b.add_guarantee("gb", 0, cs::Condition::demand("a", "ga"));
  net.add(std::move(a));
  net.add(std::move(b));
  EXPECT_THROW(net.evaluation_order(), std::runtime_error);
}

TEST(ConSertNetwork, DuplicateNameRejected) {
  cs::ConSertNetwork net;
  net.add(cs::ConSert("x"));
  EXPECT_THROW(net.add(cs::ConSert("x")), std::invalid_argument);
  EXPECT_TRUE(net.contains("x"));
  EXPECT_THROW(net.at("y"), std::out_of_range);
}

namespace {

/// Evaluates the Fig. 1 network for one UAV under the given evidence.
cs::UavAction evaluate_uav(const cs::UavEvidence& e) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::CompiledNetwork compiled(net);
  const auto slots = cs::uav_slots(compiled, "u1");
  cs::write_evidence(compiled, slots, e);
  compiled.evaluate();
  return cs::uav_action(compiled, slots);
}

cs::UavEvidence nominal_evidence() {
  cs::UavEvidence e;
  e.gps_quality_good = true;
  e.no_security_attack = true;
  e.vision_sensor_healthy = true;
  e.safeml_confidence_high = true;
  e.comm_link_good = true;
  e.nearby_uav_available = true;
  e.reliability_high = true;
  return e;
}

}  // namespace

TEST(UavNetwork, NominalEvidenceContinuesExtended) {
  EXPECT_EQ(evaluate_uav(nominal_evidence()), cs::UavAction::kContinueExtended);
}

TEST(UavNetwork, MediumReliabilityStillContinues) {
  auto e = nominal_evidence();
  e.reliability_high = false;
  e.reliability_medium = true;
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kContinue);
}

TEST(UavNetwork, SecurityAttackRemovesGpsNavigation) {
  auto e = nominal_evidence();
  e.no_security_attack = false;  // Security EDDI flags an attack
  // Collaborative navigation remains -> continue (not extended).
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kContinue);
}

TEST(UavNetwork, AttackWithoutCommFallsBackToVision) {
  auto e = nominal_evidence();
  e.no_security_attack = false;
  e.comm_link_good = false;  // no collaborative channel
  // Vision navigation (<1 m) + high reliability -> hold (nav too weak to
  // continue the mission, strong enough to wait).
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kHold);
}

TEST(UavNetwork, LowReliabilityDegradesToHold) {
  auto e = nominal_evidence();
  e.reliability_high = false;
  e.reliability_low = true;
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kHold);
}

TEST(UavNetwork, NavigationOnlyReturnsToBase) {
  auto e = nominal_evidence();
  e.reliability_high = false;  // no reliability estimate at all
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kReturnToBase);
}

TEST(UavNetwork, NothingSatisfiedEmergencyLands) {
  cs::UavEvidence e;  // everything false
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kEmergencyLand);
}

TEST(UavNetwork, ThreeUavNetworkEvaluates) {
  cs::ConSertNetwork net;
  for (const auto* name : {"u1", "u2", "u3"}) {
    cs::add_uav_conserts(net, name);
  }
  EXPECT_EQ(net.size(), 18u);
  cs::CompiledNetwork compiled(net);
  const auto u1 = cs::uav_slots(compiled, "u1");
  const auto u2 = cs::uav_slots(compiled, "u2");
  const auto u3 = cs::uav_slots(compiled, "u3");
  cs::write_evidence(compiled, u1, nominal_evidence());
  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_low = true;
  cs::write_evidence(compiled, u2, degraded);
  cs::write_evidence(compiled, u3, cs::UavEvidence{});
  compiled.evaluate();
  EXPECT_EQ(cs::uav_action(compiled, u1), cs::UavAction::kContinueExtended);
  EXPECT_EQ(cs::uav_action(compiled, u2), cs::UavAction::kHold);
  EXPECT_EQ(cs::uav_action(compiled, u3), cs::UavAction::kEmergencyLand);
}

TEST(MissionDecider, AllContinuingCompletesAsPlanned) {
  EXPECT_EQ(cs::decide_mission({cs::UavAction::kContinue,
                                cs::UavAction::kContinueExtended,
                                cs::UavAction::kContinue}),
            cs::MissionDecision::kCompleteAsPlanned);
}

TEST(MissionDecider, DropoutWithTakerRedistributes) {
  EXPECT_EQ(cs::decide_mission({cs::UavAction::kContinueExtended,
                                cs::UavAction::kEmergencyLand,
                                cs::UavAction::kContinue}),
            cs::MissionDecision::kRedistributeTasks);
}

TEST(MissionDecider, DropoutWithoutTakerCannotComplete) {
  EXPECT_EQ(cs::decide_mission({cs::UavAction::kContinue,
                                cs::UavAction::kReturnToBase,
                                cs::UavAction::kContinue}),
            cs::MissionDecision::kCannotComplete);
}

TEST(MissionDecider, EmptyFleetCannotComplete) {
  EXPECT_EQ(cs::decide_mission({}), cs::MissionDecision::kCannotComplete);
}

TEST(ActionNames, Distinct) {
  std::set<std::string> names;
  for (auto a : {cs::UavAction::kContinueExtended, cs::UavAction::kContinue,
                 cs::UavAction::kHold, cs::UavAction::kReturnToBase,
                 cs::UavAction::kEmergencyLand}) {
    names.insert(cs::uav_action_name(a));
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(cs::mission_decision_name(cs::MissionDecision::kRedistributeTasks),
            "RedistributeTasks");
}

TEST(AssuranceTrace, RecordsGuaranteeTransitions) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace(net);
  const auto slots = cs::uav_slots(trace.network(), "u1");

  auto evaluate_with = [&](const cs::UavEvidence& e, double t) {
    cs::write_evidence(trace.network(), slots, e);
    trace.evaluate(t);
  };

  evaluate_with(nominal_evidence(), 0.0);
  evaluate_with(nominal_evidence(), 5.0);  // steady: no new transitions
  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_medium = true;
  evaluate_with(degraded, 10.0);

  const auto names = cs::uav_consert_names("u1");
  const auto uav_transitions = trace.transitions_of(names.uav);
  ASSERT_EQ(uav_transitions.size(), 2u);
  // Initial grant, then the degradation at t=10.
  EXPECT_EQ(uav_transitions[0].from, "");
  EXPECT_EQ(uav_transitions[0].to, g::kContinueExtended);
  EXPECT_DOUBLE_EQ(uav_transitions[1].time_s, 10.0);
  EXPECT_EQ(uav_transitions[1].to, g::kContinue);
  EXPECT_EQ(trace.current(names.uav), g::kContinue);
  EXPECT_EQ(trace.evaluations(), 3u);
}

TEST(AssuranceTrace, LossOfAllGuaranteesRecordedAsEmpty) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace(net);
  const auto slots = cs::uav_slots(trace.network(), "u1");
  cs::write_evidence(trace.network(), slots, nominal_evidence());
  trace.evaluate(0.0);
  cs::write_evidence(trace.network(), slots, cs::UavEvidence{});
  trace.evaluate(1.0);
  const auto names = cs::uav_consert_names("u1");
  EXPECT_EQ(trace.current(names.uav), "");
  EXPECT_EQ(trace.current("not-in-the-network"), "");
  const auto ts = trace.transitions_of(names.uav);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[1].to, "");

  trace.clear();
  EXPECT_TRUE(trace.transitions().empty());
  EXPECT_EQ(trace.evaluations(), 0u);
}

// ---------------------------------------------------------------------------
// The compiled network against the string-keyed oracle, on the Fig. 1
// network and on generated networks.

namespace {

cs::UavEvidence evidence_from_mask(unsigned mask) {
  cs::UavEvidence e;
  bool* const flags[cs::kUavEvidenceFields] = {
      &e.gps_quality_good,     &e.no_security_attack, &e.vision_sensor_healthy,
      &e.safeml_confidence_high, &e.comm_link_good,   &e.nearby_uav_available,
      &e.reliability_high,     &e.reliability_medium, &e.reliability_low};
  for (std::size_t k = 0; k < cs::kUavEvidenceFields; ++k) {
    *flags[k] = (mask >> k) & 1u;
  }
  return e;
}

/// Every guarantee's granted flag and every ConSert's best guarantee of the
/// compiled network equal the oracle's.
::testing::AssertionResult matches_oracle(const cs::ConSertNetwork& net,
                                          const cs::CompiledNetwork& compiled,
                                          const cs::NetworkEvaluation& oracle) {
  std::size_t guarantees = 0;
  for (const auto& name : net.names()) {
    const std::size_t c = compiled.consert_id(name);
    if (compiled.consert_name(c) != name) {
      return ::testing::AssertionFailure() << "id of " << name;
    }
    for (const auto& g : net.at(name).guarantees()) {
      ++guarantees;
      const bool want = oracle.grants.count({name, g.name}) > 0;
      if (compiled.granted(compiled.guarantee_id(c, g.name)) != want) {
        return ::testing::AssertionFailure()
               << name << "/" << g.name << " granted should be " << want;
      }
    }
    const auto it = oracle.best.find(name);
    const std::string want = it == oracle.best.end() ? "" : it->second;
    const std::size_t best = compiled.best(c);
    const std::string got =
        best == cs::CompiledNetwork::kNone ? "" : compiled.guarantee_name(best);
    if (got != want) {
      return ::testing::AssertionFailure()
             << name << " best is '" << got << "', oracle '" << want << "'";
    }
  }
  if (guarantees != compiled.guarantee_count()) {
    return ::testing::AssertionFailure() << "guarantee count";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(CompiledNetwork, MatchesOracleOnEveryEvidenceMaskOfTheFig1Network) {
  // 1..8 UAVs; each UAV in turn runs through all 2^9 evidence masks while
  // the others hold fixed seeded masks.
  sesame::mathx::Rng rng(91);
  for (std::size_t n = 1; n <= 8; ++n) {
    cs::ConSertNetwork net;
    std::vector<std::string> uavs;
    for (std::size_t i = 0; i < n; ++i) {
      uavs.push_back("uav" + std::to_string(i + 1));
      cs::add_uav_conserts(net, uavs.back());
    }
    cs::CompiledNetwork compiled(net);
    std::vector<cs::UavSlots> slots;
    for (const auto& u : uavs) slots.push_back(cs::uav_slots(compiled, u));
    std::vector<unsigned> masks(n);
    for (auto& m : masks) m = static_cast<unsigned>(rng.uniform_index(512));
    for (std::size_t swept = 0; swept < n; ++swept) {
      for (unsigned mask = 0; mask < 512; ++mask) {
        masks[swept] = mask;
        cs::EvaluationContext ctx;
        for (std::size_t i = 0; i < n; ++i) {
          const auto e = evidence_from_mask(masks[i]);
          cs::apply_evidence(ctx, uavs[i], e);
          cs::write_evidence(compiled, slots[i], e);
        }
        const auto oracle = cs::evaluate(net, ctx);
        compiled.evaluate();
        ASSERT_TRUE(matches_oracle(net, compiled, oracle))
            << n << " UAVs, uav " << swept + 1 << " mask " << mask;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(cs::uav_action(compiled, slots[i]),
                    cs::uav_action(oracle, uavs[i]))
              << n << " UAVs, uav " << i + 1 << " mask " << mask;
        }
      }
    }
  }
}

namespace {

/// A random condition over evidence e0..e5 and demands on the ConSerts in
/// `demandable` (guarantees g0..g4; g4 never exists, some g1..g3 do not).
cs::ConditionPtr random_condition(sesame::mathx::Rng& rng,
                                  const std::vector<std::string>& demandable,
                                  int depth) {
  const std::uint64_t leaf_kinds = demandable.empty() ? 2 : 3;
  const std::uint64_t kind =
      depth == 0 ? rng.uniform_index(leaf_kinds)
                 : rng.uniform_index(leaf_kinds + 3);
  const auto children = [&] {
    std::vector<cs::ConditionPtr> out(1 + rng.uniform_index(3));
    for (auto& c : out) c = random_condition(rng, demandable, depth - 1);
    return out;
  };
  if (kind == 0) {
    return cs::Condition::evidence("e" + std::to_string(rng.uniform_index(6)));
  }
  if (kind == 1) return cs::Condition::constant(rng.bernoulli(0.5));
  if (kind == leaf_kinds) return cs::Condition::all_of(children());
  if (kind == leaf_kinds + 1) return cs::Condition::any_of(children());
  if (kind == leaf_kinds + 2) {
    return cs::Condition::negate(random_condition(rng, demandable, depth - 1));
  }
  return cs::Condition::demand(
      demandable[rng.uniform_index(demandable.size())],
      "g" + std::to_string(rng.uniform_index(5)));
}

}  // namespace

TEST(CompiledNetwork, MatchesOracleOnGeneratedNetworks) {
  // Networks of 2..7 ConSerts in multi-level demand chains, named so that
  // name order and evaluation order differ, with 1..4 guarantees of
  // repeated ranks (the first declared wins a tie), over all 2^6 evidence
  // masks.
  sesame::mathx::Rng rng(2718);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t size = 2 + rng.uniform_index(6);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < size; ++i) {
      names.push_back(
          "c" + std::to_string((size - 1 - i + static_cast<std::size_t>(trial)) % size));
    }
    cs::ConSertNetwork net;
    for (std::size_t i = 0; i < size; ++i) {
      const std::vector<std::string> lower(names.begin(), names.begin() + i);
      cs::ConSert c(names[i]);
      const std::size_t guarantees = 1 + rng.uniform_index(4);
      for (std::size_t k = 0; k < guarantees; ++k) {
        c.add_guarantee("g" + std::to_string(k),
                        static_cast<int>(rng.uniform_index(3)),
                        random_condition(rng, lower, 3));
      }
      net.add(std::move(c));
    }
    cs::CompiledNetwork compiled(net);
    std::set<std::string> referenced;
    for (const auto& name : net.names()) {
      for (const auto& g : net.at(name).guarantees()) {
        g.condition->collect_evidence(referenced);
      }
    }
    for (unsigned mask = 0; mask < 64; ++mask) {
      cs::EvaluationContext ctx;
      for (unsigned k = 0; k < 6; ++k) {
        const std::string e = "e" + std::to_string(k);
        const bool value = (mask >> k) & 1u;
        ctx.set_evidence(e, value);
        if (referenced.count(e) != 0) {
          compiled.set_evidence(compiled.evidence_slot(e), value);
        }
      }
      compiled.evaluate();
      ASSERT_TRUE(matches_oracle(net, compiled, cs::evaluate(net, ctx)))
          << "trial " << trial << " mask " << mask;
    }
  }
}

TEST(CompiledNetwork, RejectsCyclesAndUnknownDemandsLikeTheOracle) {
  cs::ConSertNetwork cycle;
  cs::ConSert a("a"), b("b");
  a.add_guarantee("x", 0, cs::Condition::demand("b", "y"));
  b.add_guarantee("y", 0, cs::Condition::demand("a", "x"));
  cycle.add(std::move(a));
  cycle.add(std::move(b));
  cs::EvaluationContext ctx;
  EXPECT_THROW(cs::evaluate(cycle, ctx), std::runtime_error);
  EXPECT_THROW(cs::CompiledNetwork{cycle}, std::runtime_error);

  cs::ConSertNetwork self;
  cs::ConSert s("s");
  s.add_guarantee("x", 0, cs::Condition::negate(cs::Condition::demand("s", "x")));
  self.add(std::move(s));
  EXPECT_THROW(cs::evaluate(self, ctx), std::runtime_error);
  EXPECT_THROW(cs::CompiledNetwork{self}, std::runtime_error);

  cs::ConSertNetwork unknown;
  cs::ConSert u("u");
  u.add_guarantee("x", 0, cs::Condition::demand("ghost", "y"));
  unknown.add(std::move(u));
  EXPECT_THROW(cs::evaluate(unknown, ctx), std::runtime_error);
  EXPECT_THROW(cs::CompiledNetwork{unknown}, std::runtime_error);
}

TEST(CompiledNetwork, NamesAreResolvedOnlyAtTheEdges) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  const cs::CompiledNetwork compiled(net);
  EXPECT_EQ(compiled.consert_count(), net.size());
  EXPECT_THROW(compiled.evidence_slot("u1/unread"), std::out_of_range);
  EXPECT_THROW(compiled.consert_id("u2/uav"), std::out_of_range);
  const std::size_t top = compiled.consert_id(cs::uav_consert_names("u1").uav);
  EXPECT_THROW(compiled.guarantee_id(top, g::kGpsAccurate), std::out_of_range);
  EXPECT_THROW(cs::uav_slots(compiled, "u2"), std::out_of_range);
  // Nothing evaluated yet: every ConSert holds only its implicit default.
  EXPECT_EQ(compiled.best(top), cs::CompiledNetwork::kNone);
}

TEST(AssuranceTrace, TransitionsMatchTheStringKeyedOracle) {
  // Three UAVs under seeded evidence that mostly repeats: the recorded
  // transitions equal those implied by the oracle's evaluations, in
  // ConSert-name order per evaluation.
  cs::ConSertNetwork net;
  const std::vector<std::string> uavs{"uav1", "uav2", "uav3"};
  for (const auto& u : uavs) cs::add_uav_conserts(net, u);
  cs::AssuranceTrace trace(net);
  std::vector<cs::UavSlots> slots;
  for (const auto& u : uavs) slots.push_back(cs::uav_slots(trace.network(), u));

  sesame::mathx::Rng rng(5);
  std::vector<unsigned> masks(uavs.size(), 0x7f);
  std::vector<cs::GuaranteeTransition> expected;
  std::map<std::string, std::string> current;
  for (int step = 0; step < 200; ++step) {
    const double t = 5.0 * step;
    for (auto& m : masks) {
      if (rng.bernoulli(0.2)) m = static_cast<unsigned>(rng.uniform_index(512));
    }
    cs::EvaluationContext ctx;
    for (std::size_t i = 0; i < uavs.size(); ++i) {
      const auto e = evidence_from_mask(masks[i]);
      cs::apply_evidence(ctx, uavs[i], e);
      cs::write_evidence(trace.network(), slots[i], e);
    }
    const auto oracle = cs::evaluate(net, ctx);
    trace.evaluate(t);
    ASSERT_TRUE(matches_oracle(net, trace.network(), oracle)) << "step " << step;
    for (const auto& name : net.names()) {
      const auto it = oracle.best.find(name);
      const std::string now = it == oracle.best.end() ? "" : it->second;
      std::string& prev = current[name];
      if (prev != now) expected.push_back({t, name, prev, now});
      prev = now;
    }
  }

  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(trace.transitions().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& a = trace.transitions()[i];
    const auto& b = expected[i];
    EXPECT_EQ(a.time_s, b.time_s);
    EXPECT_EQ(a.consert, b.consert);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
  }
  for (const auto& [name, now] : current) EXPECT_EQ(trace.current(name), now);
  EXPECT_EQ(trace.evaluations(), 200u);
}
