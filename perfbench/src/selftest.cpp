// Self-tests of the stack benchmark: metric/workload naming, seed handling
// of the service mix, a smoke-sized pass of every workload in both modes,
// and the wall-clock (not CPU-time) basis of runs_per_s.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <regex>
#include <set>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

Options smoke(const std::string& workload, std::uint64_t seed, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = 0.5;
  o.trace = trace;
  o.sizing = Sizing::smoke();
  return o;
}

std::string service_json(const MixItem& item) {
  return sesame::service::submission_to_json(item.submission);
}

std::set<std::string> names_of(const Outcome& out) {
  std::set<std::string> names;
  for (const auto& m : out.metrics) names.insert(m.name);
  return names;
}

TEST(Perfbench, NamesAndUnitsMatchTheBenchmarkGrammar) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const auto& spec : *specs) {
      EXPECT_TRUE(std::regex_match(spec.name, name_re)) << spec.name;
      EXPECT_TRUE(std::regex_match(spec.unit, unit_re)) << spec.unit;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    }
  }
  for (const auto& w : workload_names()) {
    EXPECT_TRUE(std::regex_match(w, name_re)) << w;
    EXPECT_TRUE(seen.insert(w).second) << "duplicate " << w;
  }
}

TEST(Perfbench, MixHasTheFixedRepeatShareAndUniqueSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::size_t client = 0; client < 3; ++client) {
    const auto mix = generate_mix(11, client, 10 * kMixBlock);
    std::size_t repeats = 0;
    const MixItem* last_unique = nullptr;
    for (const MixItem& item : mix) {
      if (item.repeat) {
        ++repeats;
        ASSERT_NE(last_unique, nullptr) << "a mix may not open with a repeat";
        EXPECT_EQ(service_json(item), service_json(*last_unique));
      } else {
        EXPECT_TRUE(seeds.insert(item.submission.seed).second);
        last_unique = &item;
      }
    }
    EXPECT_EQ(repeats, 10 * kMixRepeatsPerBlock);
  }
}

TEST(Perfbench, SeedChangesInputsButNotTheMetricSet) {
  const auto mix1 = generate_mix(1, 0, 2 * kMixBlock);
  const auto mix2 = generate_mix(2, 0, 2 * kMixBlock);
  bool differs = false;
  for (std::size_t i = 0; i < mix1.size(); ++i) {
    differs |= service_json(mix1[i]) != service_json(mix2[i]);
  }
  EXPECT_TRUE(differs);
  EXPECT_NE(campaign_spec(smoke("spoofing_sesame", 1, false)).campaign_seed,
            campaign_spec(smoke("spoofing_sesame", 2, false)).campaign_seed);

  const Outcome a = run_workload(smoke("spoofing_sesame", 1, false));
  const Outcome b = run_workload(smoke("spoofing_sesame", 2, false));
  EXPECT_EQ(names_of(a), names_of(b));
}

class SmokePass
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SmokePass, ReportsEveryNamedMetricWithItsUnit) {
  const auto& [workload, trace] = GetParam();
  const Outcome out = run_workload(smoke(workload, 3, trace));
  for (const auto& note : out.notes) std::printf("  # %s\n", note.c_str());
  EXPECT_TRUE(out.correct);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_GE(out.attempted, 1u);
  const auto& specs = trace ? per_layer_specs() : end_to_end_specs();
  ASSERT_EQ(out.metrics.size(), specs.size());
  for (const auto& spec : specs) {
    const auto it = std::find_if(
        out.metrics.begin(), out.metrics.end(),
        [&](const Metric& m) { return m.name == spec.name; });
    ASSERT_NE(it, out.metrics.end()) << spec.name;
    EXPECT_EQ(it->unit, spec.unit) << spec.name;
    EXPECT_TRUE(std::isfinite(it->value)) << spec.name;
    if (!trace) EXPECT_GT(it->value, 0.0) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SmokePass,
    ::testing::Combine(::testing::ValuesIn(workload_names()),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_traced" : "_timed");
    });

// runs_per_s comes from a steady clock over the timed window. Campaigns'
// own wall_seconds exclude only report writing and loop overhead, so the
// two rates agree closely; a CPU-time rate would read several times higher
// at jobs > 1.
TEST(Perfbench, RunsPerSecondIsAWallClockRate) {
  Options o = smoke("spoofing_sesame", 5, false);
  o.sizing.spoofing_runs = 8;
  o.seconds = 1.0;
  const Outcome out = run_workload(o);
  ASSERT_TRUE(out.correct);
  EXPECT_GT(out.rate_vs_wall_seconds, 0.8);
  EXPECT_LE(out.rate_vs_wall_seconds, 1.0 + 1e-9);
}

}  // namespace
