// Exercises the paper's Fig. 1 hierarchical ConSert network: enumerates
// the evidence space through the compiled network, prints the resulting
// action lattice and mission decisions with PASS/FAIL shape checks, and
// times the runtime evaluation (the cost that matters for "shifting
// assurance to runtime" on constrained UAV hardware):
// BM_SingleUavEvaluation and BM_FleetEvaluation time
// CompiledNetwork::evaluate alone, BM_ConsertTick3Uav the whole ConSert
// tick a mission runs every ConSert period.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "sesame/conserts/assurance_trace.hpp"
#include "sesame/conserts/uav_network.hpp"

namespace {

using namespace sesame::conserts;

UavEvidence evidence_from_mask(unsigned mask) {
  UavEvidence e;
  e.gps_quality_good = mask & 1u;
  e.no_security_attack = mask & 2u;
  e.vision_sensor_healthy = mask & 4u;
  e.safeml_confidence_high = mask & 8u;
  e.comm_link_good = mask & 16u;
  e.nearby_uav_available = mask & 32u;
  // Reliability: two bits select exactly one of High/Medium/Low/none.
  const unsigned rel = (mask >> 6) & 3u;
  e.reliability_high = rel == 1;
  e.reliability_medium = rel == 2;
  e.reliability_low = rel == 3;
  return e;
}

/// UAV "uav1"'s Fig. 1 network, compiled.
struct CompiledUav {
  CompiledNetwork compiled{network()};
  UavSlots slots = uav_slots(compiled, "uav1");

  static ConSertNetwork network() {
    ConSertNetwork net;
    add_uav_conserts(net, "uav1");
    return net;
  }

  UavAction action(const UavEvidence& e) {
    write_evidence(compiled, slots, e);
    compiled.evaluate();
    return uav_action(compiled, slots);
  }
};

/// Returns the number of failed shape checks.
int report() {
  sesame::bench::ShapeChecks checks;
  std::printf("==============================================================\n");
  std::printf("Fig. 1 — Hierarchical ConSert UAV network evaluation\n");
  std::printf("==============================================================\n");

  CompiledUav uav;

  // Sweep the full evidence space; count the resulting actions.
  std::size_t counts[5] = {0, 0, 0, 0, 0};
  UavAction actions[256];
  const unsigned total = 1u << 8;
  for (unsigned mask = 0; mask < total; ++mask) {
    actions[mask] = uav.action(evidence_from_mask(mask));
    counts[static_cast<int>(actions[mask])]++;
  }
  std::printf("\nAction distribution over all %u evidence combinations:\n",
              total);
  for (int a = 0; a < 5; ++a) {
    std::printf("  %-32s %zu\n",
                uav_action_name(static_cast<UavAction>(a)).c_str(), counts[a]);
  }
  // The counts the string-keyed reference evaluator gives over the same
  // sweep (test_conserts checks the two agree mask by mask).
  const std::size_t reference[5] = {16, 40, 55, 37, 108};
  const bool counts_ok = std::equal(counts, counts + 5, reference);
  std::printf("  %-58s %s\n",
              "counts equal the reference evaluator's (16/40/55/37/108):",
              checks.check(counts_ok));

  // Monotone degradation: losing one evidence flag, or stepping the
  // reliability level down (High > Medium > Low > none), never yields a
  // stronger action. UavAction is ordered strongest to weakest.
  bool monotone = true;
  const unsigned rel_order[4] = {1, 2, 3, 0};  // selector values, best first
  for (unsigned mask = 0; mask < total; ++mask) {
    for (unsigned bit = 0; bit < 6; ++bit) {
      if ((mask & (1u << bit)) != 0 &&
          actions[mask & ~(1u << bit)] < actions[mask]) {
        monotone = false;
      }
    }
    const unsigned flags = mask & 63u;
    for (int r = 0; r + 1 < 4; ++r) {
      if (actions[flags | (rel_order[r + 1] << 6)] <
          actions[flags | (rel_order[r] << 6)]) {
        monotone = false;
      }
    }
  }
  std::printf("  %-58s %s\n",
              "lattice degrades monotonically in every evidence flag:",
              checks.check(monotone));

  // Representative rows of the decision table.
  struct Row {
    const char* description;
    UavEvidence e;
  };
  auto nominal = [] {
    UavEvidence e;
    e.gps_quality_good = e.no_security_attack = e.vision_sensor_healthy =
        e.safeml_confidence_high = e.comm_link_good = e.nearby_uav_available =
            true;
    e.reliability_high = true;
    return e;
  };
  std::vector<Row> rows;
  rows.push_back({"all evidence nominal", nominal()});
  {
    auto e = nominal();
    e.no_security_attack = false;
    rows.push_back({"security attack flagged", e});
  }
  {
    auto e = nominal();
    e.reliability_high = false;
    e.reliability_low = true;
    rows.push_back({"SafeDrones reliability low", e});
  }
  {
    auto e = nominal();
    e.gps_quality_good = false;
    e.comm_link_good = false;
    e.safeml_confidence_high = false;
    rows.push_back({"GPS lost, no comms, SafeML low", e});
  }
  std::printf("\n%-36s %s\n", "situation", "UAV ConSert action");
  for (const auto& row : rows) {
    std::printf("%-36s %s\n", row.description,
                uav_action_name(uav.action(row.e)).c_str());
  }

  // Mission decider over a degrading 3-UAV fleet.
  const MissionDecision planned = decide_mission(
      {UavAction::kContinue, UavAction::kContinue, UavAction::kContinueExtended});
  const MissionDecision redistributed = decide_mission(
      {UavAction::kEmergencyLand, UavAction::kContinue,
       UavAction::kContinueExtended});
  const MissionDecision incomplete = decide_mission(
      {UavAction::kEmergencyLand, UavAction::kContinue, UavAction::kContinue});
  std::printf("\nMission decider (3 UAVs):\n");
  std::printf("  all continue              -> %s\n",
              mission_decision_name(planned).c_str());
  std::printf("  one lands, taker present  -> %s\n",
              mission_decision_name(redistributed).c_str());
  std::printf("  one lands, no taker       -> %s\n",
              mission_decision_name(incomplete).c_str());
  std::printf("  %-58s %s\n\n", "decider gives its three outcomes:",
              checks.check(planned == MissionDecision::kCompleteAsPlanned &&
                           redistributed == MissionDecision::kRedistributeTasks &&
                           incomplete == MissionDecision::kCannotComplete));
  return checks.failed();
}

void BM_SingleUavEvaluation(benchmark::State& state) {
  CompiledUav uav;
  UavEvidence e;
  e.gps_quality_good = e.no_security_attack = e.reliability_high = true;
  write_evidence(uav.compiled, uav.slots, e);
  for (auto _ : state) {
    uav.compiled.evaluate();
    benchmark::DoNotOptimize(uav.compiled.best(uav.slots.uav_consert));
  }
}
BENCHMARK(BM_SingleUavEvaluation);

void BM_FleetEvaluation(benchmark::State& state) {
  const auto n_uavs = static_cast<std::size_t>(state.range(0));
  ConSertNetwork net;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n_uavs; ++i) {
    names.push_back("uav" + std::to_string(i));
    add_uav_conserts(net, names.back());
  }
  CompiledNetwork compiled(net);
  UavEvidence e;
  e.gps_quality_good = e.no_security_attack = e.reliability_high = true;
  for (const auto& name : names) {
    write_evidence(compiled, uav_slots(compiled, name), e);
  }
  for (auto _ : state) {
    compiled.evaluate();
    benchmark::DoNotOptimize(compiled.best(0));
  }
  state.SetComplexityN(static_cast<long>(n_uavs));
}
BENCHMARK(BM_FleetEvaluation)->Arg(1)->Arg(3)->Arg(10)->Arg(30)->Complexity();

// One runtime ConSert tick of the 3-UAV mission through the production
// path, as MissionRunner runs it: write each UAV's evidence by slot,
// evaluate the compiled network through the assurance trace (recording
// transitions), read each UAV's action by slot. The evidence is mostly
// steady, as in flight, with one UAV degrading for 8 of every 64 ticks.
void BM_ConsertTick3Uav(benchmark::State& state) {
  ConSertNetwork net;
  const std::vector<std::string> uavs{"uav1", "uav2", "uav3"};
  for (const auto& u : uavs) add_uav_conserts(net, u);
  AssuranceTrace trace(net);
  std::vector<UavSlots> slots;
  for (const auto& u : uavs) slots.push_back(uav_slots(trace.network(), u));
  const std::vector<UavEvidence> evidence{evidence_from_mask(0x7f),
                                          evidence_from_mask(0xbf)};
  std::array<UavAction, 3> actions{};
  std::size_t tick = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < uavs.size(); ++i) {
      const bool degraded = i == tick / 64 % 3 && tick % 64 < 8;
      write_evidence(trace.network(), slots[i], evidence[degraded ? 1 : 0]);
    }
    trace.evaluate(5.0 * static_cast<double>(tick));
    for (std::size_t i = 0; i < uavs.size(); ++i) {
      actions[i] = uav_action(trace.network(), slots[i]);
    }
    benchmark::DoNotOptimize(actions.data());
    benchmark::ClobberMemory();
    if (++tick % 65536 == 0) trace.clear();  // bound the recorded timeline
  }
}
BENCHMARK(BM_ConsertTick3Uav);

}  // namespace

int main(int argc, char** argv) {
  const int failures = report();
  return sesame::bench::run_main(argc, argv, failures);
}
