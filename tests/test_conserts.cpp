// Tests for the ConSerts engine: condition algebra, guarantee selection,
// network composition/topological evaluation, the paper's Fig. 1 UAV
// network, and the mission decider.
#include <gtest/gtest.h>

#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/uav_network.hpp"

namespace cs = sesame::conserts;
namespace g = sesame::conserts::guarantees;

TEST(Condition, EvidenceLeaf) {
  cs::EvaluationContext ctx;
  auto c = cs::Condition::evidence("x");
  EXPECT_FALSE(c->evaluate(ctx));  // unset evidence is false
  ctx.set_evidence("x", true);
  EXPECT_TRUE(c->evaluate(ctx));
  ctx.set_evidence("x", false);
  EXPECT_FALSE(c->evaluate(ctx));
}

TEST(Condition, DemandLeaf) {
  cs::EvaluationContext ctx;
  auto c = cs::Condition::demand("nav", "accurate");
  EXPECT_FALSE(c->evaluate(ctx));
  ctx.grant("nav", "accurate");
  EXPECT_TRUE(c->evaluate(ctx));
  ctx.clear_grants();
  EXPECT_FALSE(c->evaluate(ctx));
}

TEST(Condition, GatesAndConstants) {
  cs::EvaluationContext ctx;
  ctx.set_evidence("a", true);
  ctx.set_evidence("b", false);
  auto a = cs::Condition::evidence("a");
  auto b = cs::Condition::evidence("b");
  EXPECT_FALSE(cs::Condition::all_of({a, b})->evaluate(ctx));
  EXPECT_TRUE(cs::Condition::any_of({a, b})->evaluate(ctx));
  EXPECT_TRUE(cs::Condition::negate(b)->evaluate(ctx));
  EXPECT_TRUE(cs::Condition::constant(true)->evaluate(ctx));
  EXPECT_FALSE(cs::Condition::constant(false)->evaluate(ctx));
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
  cs::ConSert c("nav");
  c.add_guarantee("strong", 0, cs::Condition::evidence("good"));
  c.add_guarantee("weak", 5, cs::Condition::constant(true));
  cs::EvaluationContext ctx;
  EXPECT_EQ(c.best(ctx), "weak");
  ctx.set_evidence("good", true);
  EXPECT_EQ(c.best(ctx), "strong");
  EXPECT_EQ(c.satisfied(ctx).size(), 2u);
}

TEST(ConSert, NoGuaranteeSatisfied) {
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::evidence("never"));
  cs::EvaluationContext ctx;
  EXPECT_FALSE(c.best(ctx).has_value());
  EXPECT_TRUE(c.satisfied(ctx).empty());
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
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  cs::ConSert top("top");
  top.add_guarantee("safe", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(top));

  cs::EvaluationContext ctx;
  ctx.set_evidence("sensor_ok", true);
  const auto eval = net.evaluate(ctx);
  EXPECT_TRUE(eval.grants.count({"leaf", "ok"}));
  EXPECT_TRUE(eval.grants.count({"top", "safe"}));
  EXPECT_EQ(eval.best.at("top"), "safe");
  // Dependency order respected.
  ASSERT_EQ(eval.order.size(), 2u);
  EXPECT_EQ(eval.order[0], "leaf");
}

TEST(ConSertNetwork, UnknownDemandThrows) {
  cs::ConSertNetwork net;
  cs::ConSert top("top");
  top.add_guarantee("g", 0, cs::Condition::demand("ghost", "x"));
  net.add(std::move(top));
  cs::EvaluationContext ctx;
  EXPECT_THROW(net.evaluate(ctx), std::runtime_error);
}

TEST(ConSertNetwork, CycleDetection) {
  cs::ConSertNetwork net;
  cs::ConSert a("a"), b("b");
  a.add_guarantee("ga", 0, cs::Condition::demand("b", "gb"));
  b.add_guarantee("gb", 0, cs::Condition::demand("a", "ga"));
  net.add(std::move(a));
  net.add(std::move(b));
  cs::EvaluationContext ctx;
  EXPECT_THROW(net.evaluate(ctx), std::runtime_error);
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
  cs::EvaluationContext ctx;
  cs::apply_evidence(ctx, "u1", e);
  const auto eval = net.evaluate(ctx);
  return cs::uav_action(eval, "u1");
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
  cs::EvaluationContext ctx;
  cs::apply_evidence(ctx, "u1", nominal_evidence());
  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_low = true;
  cs::apply_evidence(ctx, "u2", degraded);
  cs::apply_evidence(ctx, "u3", cs::UavEvidence{});
  const auto eval = net.evaluate(ctx);
  EXPECT_EQ(cs::uav_action(eval, "u1"), cs::UavAction::kContinueExtended);
  EXPECT_EQ(cs::uav_action(eval, "u2"), cs::UavAction::kHold);
  EXPECT_EQ(cs::uav_action(eval, "u3"), cs::UavAction::kEmergencyLand);
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

TEST(ExplainGuarantee, ListsMissingEvidenceAndDemands) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  auto e = nominal_evidence();
  e.gps_quality_good = false;       // breaks the GPS localization guarantee
  e.no_security_attack = false;
  cs::EvaluationContext ctx;
  cs::apply_evidence(ctx, "u1", e);
  net.evaluate(ctx);  // populate grants

  const auto names = cs::uav_consert_names("u1");
  const auto gps_expl = cs::explain_guarantee(
      net.at(names.gps_localization), g::kGpsAccurate, ctx);
  EXPECT_FALSE(gps_expl.satisfied);
  ASSERT_EQ(gps_expl.missing_evidence.size(), 2u);
  EXPECT_TRUE(gps_expl.missing_demands.empty());

  // The navigation high-performance guarantee fails through its demand.
  const auto nav_expl = cs::explain_guarantee(
      net.at(names.navigation), g::kNavHighPerformance, ctx);
  EXPECT_FALSE(nav_expl.satisfied);
  ASSERT_EQ(nav_expl.missing_demands.size(), 1u);
  EXPECT_EQ(nav_expl.missing_demands[0].first, names.gps_localization);
}

TEST(ExplainGuarantee, SatisfiedGuaranteeHasNothingMissing) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::EvaluationContext ctx;
  cs::apply_evidence(ctx, "u1", nominal_evidence());
  net.evaluate(ctx);
  const auto names = cs::uav_consert_names("u1");
  const auto expl = cs::explain_guarantee(net.at(names.uav),
                                          g::kContinueExtended, ctx);
  EXPECT_TRUE(expl.satisfied);
  EXPECT_TRUE(expl.missing_evidence.empty());
  EXPECT_TRUE(expl.missing_demands.empty());
}

TEST(ExplainGuarantee, UnknownGuaranteeThrows) {
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::constant(true));
  cs::EvaluationContext ctx;
  EXPECT_THROW(cs::explain_guarantee(c, "nope", ctx), std::invalid_argument);
}

#include "sesame/conserts/assurance_trace.hpp"

TEST(AssuranceTrace, RecordsGuaranteeTransitions) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace(net);

  auto evaluate_with = [&](const cs::UavEvidence& e, double t) {
    cs::EvaluationContext ctx;
    cs::apply_evidence(ctx, "u1", e);
    trace.evaluate(ctx, t);
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
  cs::EvaluationContext ctx;
  cs::apply_evidence(ctx, "u1", nominal_evidence());
  trace.evaluate(ctx, 0.0);
  cs::EvaluationContext empty_ctx;
  cs::apply_evidence(empty_ctx, "u1", cs::UavEvidence{});
  trace.evaluate(empty_ctx, 1.0);
  const auto names = cs::uav_consert_names("u1");
  EXPECT_EQ(trace.current(names.uav), "");
  const auto ts = trace.transitions_of(names.uav);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[1].to, "");

  trace.clear();
  EXPECT_TRUE(trace.transitions().empty());
  EXPECT_EQ(trace.evaluations(), 0u);
}

#include "sesame/conserts/evaluation_cache.hpp"

namespace {

/// Helper: evaluation results must agree field-by-field.
void expect_same_evaluation(const cs::NetworkEvaluation& a,
                            const cs::NetworkEvaluation& b) {
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.order, b.order);
}

}  // namespace

TEST(ConSertNetwork, EvaluationOrderIsCachedAndInvalidatedByAdd) {
  cs::ConSertNetwork net;
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  const auto& order1 = net.evaluation_order();
  ASSERT_EQ(order1.size(), 1u);
  // Same object on repeated calls (cache, not a fresh vector).
  EXPECT_EQ(&net.evaluation_order(), &order1);

  cs::ConSert top("top");
  top.add_guarantee("safe", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(top));
  const auto& order2 = net.evaluation_order();
  ASSERT_EQ(order2.size(), 2u);
  EXPECT_EQ(order2[0], "leaf");
  EXPECT_EQ(order2[1], "top");
}

TEST(CachedNetworkEvaluator, MatchesUncachedAcrossEvidenceSweep) {
  // The real Fig. 1 network: every evidence combination toggled one at a
  // time must produce identical grants/best/order through the cache.
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::CachedNetworkEvaluator cached(net);

  std::vector<cs::UavEvidence> cases;
  cases.push_back(nominal_evidence());
  cases.push_back(cs::UavEvidence{});
  for (int bit = 0; bit < 6; ++bit) {
    auto e = nominal_evidence();
    switch (bit) {
      case 0: e.gps_quality_good = false; break;
      case 1: e.no_security_attack = false; break;
      case 2: e.vision_sensor_healthy = false; break;
      case 3: e.safeml_confidence_high = false; break;
      case 4: e.comm_link_good = false; break;
      case 5:
        e.reliability_high = false;
        e.reliability_low = true;
        break;
    }
    cases.push_back(e);
  }
  // Revisit earlier cases so the cache sees both hits and evidence flips.
  cases.push_back(nominal_evidence());
  cases.push_back(cases[3]);

  for (const auto& e : cases) {
    cs::EvaluationContext ctx_cached, ctx_plain;
    cs::apply_evidence(ctx_cached, "u1", e);
    cs::apply_evidence(ctx_plain, "u1", e);
    expect_same_evaluation(cached.evaluate(ctx_cached),
                           net.evaluate(ctx_plain));
  }
  EXPECT_GT(cached.hits(), 0u);
  EXPECT_GT(cached.misses(), 0u);
}

TEST(CachedNetworkEvaluator, UnchangedFootprintIsAllHits) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::CachedNetworkEvaluator cached(net);

  cs::EvaluationContext ctx;
  cs::apply_evidence(ctx, "u1", nominal_evidence());
  (void)cached.evaluate(ctx);
  EXPECT_EQ(cached.hits(), 0u);
  EXPECT_EQ(cached.misses(), net.size());

  // Same evidence again: every ConSert replays its cached result.
  const auto again = cached.evaluate(ctx);
  EXPECT_EQ(cached.hits(), net.size());
  EXPECT_EQ(cached.misses(), net.size());
  EXPECT_FALSE(again.best.empty());
}

TEST(CachedNetworkEvaluator, EvidenceFlipPropagatesThroughDemands) {
  // leaf <- mid <- top demand chain: flipping the leaf's evidence must
  // re-derive the whole chain (the demand grants are part of each node's
  // input footprint).
  cs::ConSertNetwork net;
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  cs::ConSert mid("mid");
  mid.add_guarantee("ready", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(mid));
  cs::ConSert top("top");
  top.add_guarantee("safe", 0, cs::Condition::demand("mid", "ready"));
  net.add(std::move(top));

  cs::CachedNetworkEvaluator cached(net);
  cs::EvaluationContext ctx;
  ctx.set_evidence("sensor_ok", true);
  auto eval = cached.evaluate(ctx);
  EXPECT_TRUE(eval.grants.count({"top", "safe"}));

  ctx.set_evidence("sensor_ok", false);
  eval = cached.evaluate(ctx);
  EXPECT_FALSE(eval.grants.count({"leaf", "ok"}));
  EXPECT_FALSE(eval.grants.count({"mid", "ready"}));
  EXPECT_FALSE(eval.grants.count({"top", "safe"}));
  EXPECT_TRUE(eval.best.empty());
}

TEST(CachedNetworkEvaluator, InvalidateRebuildsAfterNetworkGrowth) {
  cs::ConSertNetwork net;
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  cs::CachedNetworkEvaluator cached(net);

  cs::EvaluationContext ctx;
  ctx.set_evidence("sensor_ok", true);
  (void)cached.evaluate(ctx);

  cs::ConSert top("top");
  top.add_guarantee("safe", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(top));
  cached.invalidate();

  const auto eval = cached.evaluate(ctx);
  ASSERT_EQ(eval.order.size(), 2u);
  EXPECT_TRUE(eval.grants.count({"top", "safe"}));
}

TEST(AssuranceTrace, CachedAndUncachedTracesAgree) {
  // The trace evaluates through the cache; ConSertNetwork::evaluate is the
  // oracle for both the evaluations and the transitions they imply.
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace(net);

  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_low = true;
  const std::vector<cs::UavEvidence> timeline{
      nominal_evidence(), nominal_evidence(), degraded, degraded,
      nominal_evidence()};

  std::vector<cs::GuaranteeTransition> expected;
  std::map<std::string, std::string> current;
  double t = 0.0;
  for (const auto& e : timeline) {
    cs::EvaluationContext ctx_a, ctx_b;
    cs::apply_evidence(ctx_a, "u1", e);
    cs::apply_evidence(ctx_b, "u1", e);
    const auto oracle = net.evaluate(ctx_b);
    expect_same_evaluation(trace.evaluate(ctx_a, t), oracle);
    for (const auto& name : net.names()) {
      const auto it = oracle.best.find(name);
      const std::string now = it == oracle.best.end() ? "" : it->second;
      std::string& prev = current[name];
      if (prev != now) expected.push_back({t, name, prev, now});
      prev = now;
    }
    t += 5.0;
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
  // The repeated-evidence steps hit the cache.
  EXPECT_GT(trace.cache_hits(), 0u);
  EXPECT_GT(trace.cache_misses(), 0u);
}
