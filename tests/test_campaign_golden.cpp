// Golden campaign-report digests: the byte contract of the whole stack.
//
// Each preset's campaign report (campaign_json, the bytes campaign_cli
// --json writes) is pinned as an FNV-1a 64 digest for a fixed campaign
// seed, at one and at four workers. Any change to a monitor, the mission
// loop, the bus or the report writer that moves a single report byte fails
// here. The digests were first recorded before the incremental EDDI
// monitors landed, so they pinned those monitors to the batch verdicts;
// the SESAME presets' were re-pinned once since (see kGolden). A second
// digest covers the same report with its `metrics` section emptied: the
// outcome bytes (campaign, summary and runs). A change that only moves
// instrumentation counters re-pins the first digest and leaves the second
// alone.
// `fleet_1024` is pinned separately, at two runs and two workers: it is
// the one preset that flies hundreds of concurrent comms blackouts and
// several hard crashes per run, so it pins the fault layer's per-message
// gates. CI also runs it under --fail-on-violation.
//
// Reports carry no SafeML value, so a 1-ULP drift in a monitor that
// happens not to flip a threshold leaves them unchanged. The tick-level
// goldens below close that gap: they pin every tick's p_fail and
// sar_uncertainty bit patterns and action, plus the assurance-trace
// transitions, of run 0 of a seed-7 campaign of two presets.
//
// The digests are those of the fault-free stack, so this binary clears the
// SESAME_FAULT_PLAN hook (docs/FAULT_INJECTION.md) before any run: under
// the CI fault-stress job it still checks the pinned bytes, with the
// sanitizers on.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/campaign/scenario_factory.hpp"

namespace campaign = sesame::campaign;

namespace {

/// Incremental FNV-1a 64.
class Fnv1a64 {
 public:
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  /// The value's object representation (bit pattern).
  template <typename T>
  void add_bits(T v) {
    char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    add(std::string_view(b, sizeof b));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a64 h;
  h.add(bytes);
  return h.value();
}

struct Golden {
  const char* preset;
  std::uint64_t digest;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.preset; }

struct ReportGolden {
  const char* preset;
  std::uint64_t report;   ///< the whole campaign_json
  std::uint64_t outcome;  ///< campaign_json with result.metrics cleared
};

void PrintTo(const ReportGolden& g, std::ostream* os) { *os << g.preset; }

class FaultFreeEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { ::unsetenv("SESAME_FAULT_PLAN"); }
};

const auto* const kFaultFree =
    ::testing::AddGlobalTestEnvironment(new FaultFreeEnvironment);

constexpr std::size_t kRuns = 8;
constexpr std::uint64_t kSeed = 7;

// The report digests were re-pinned when MissionRunner stopped wiring a
// telemetry database into every run: each telemetry message now reaches
// one runner handler instead of two, so every
// sesame.mw.deliver_total{topic="uav/<name>/telemetry"} sample is half its
// old value. The outcome digests, recorded before that change, did not
// move.
//
// REPORT-COMPAT EXCEPTION (design-time assets): both digests of every
// SESAME preset (nominal, battery_fault, spoofing, spoofing_lossy, chaos)
// were re-pinned when the SafeML reference and calibration, the
// DeepKnowledge MLP and analyzer and the DK baseline moved off the run's
// world RNG onto the fixed design seed (build_design_assets), built once
// per campaign. Every later world draw of a SESAME run shifted. baseline
// draws no design assets and kept both digests.
constexpr ReportGolden kGolden[] = {
    {"nominal", 0xffb1c5963b90c40fULL, 0x06d9daedf23cb7efULL},
    {"baseline", 0x6be820aeedb0ce44ULL, 0x75c5cac65a3939efULL},
    {"battery_fault", 0xd5f8586e339e1b35ULL, 0x926e0d234b794695ULL},
    {"spoofing", 0xa2370b5f53a0cbeeULL, 0xf6db419d33199800ULL},
    {"spoofing_lossy", 0x4af9ab215659ef27ULL, 0x6b0581c13a563c08ULL},
    {"chaos", 0x86055266bfe561cbULL, 0x5391e78535c9764aULL},
};

campaign::CampaignResult campaign_for(const std::string& preset,
                                      std::size_t jobs) {
  const auto factory = campaign::ScenarioFactory::preset(preset);
  campaign::CampaignConfig config;
  config.runs = kRuns;
  config.jobs = jobs;
  config.seed = kSeed;
  return campaign::run_campaign(factory, config);
}

class GoldenCampaign : public ::testing::TestWithParam<ReportGolden> {};

TEST_P(GoldenCampaign, ReportDigestIsPinnedAtOneAndFourJobs) {
  const ReportGolden& g = GetParam();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    auto result = campaign_for(g.preset, jobs);
    const std::uint64_t report = fnv1a64(campaign::campaign_json(result));
    EXPECT_EQ(report, g.report)
        << g.preset << " at jobs=" << jobs << ": got 0x" << std::hex << report;
    result.metrics = {};
    const std::uint64_t outcome = fnv1a64(campaign::campaign_json(result));
    EXPECT_EQ(outcome, g.outcome) << g.preset << " outcome at jobs=" << jobs
                                  << ": got 0x" << std::hex << outcome;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, GoldenCampaign, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<ReportGolden>& info) {
      return std::string(info.param.preset);
    });

// Seed 7's first two fleet_1024 runs: 1,024 vehicles each, with chaos
// schedules that hold hundreds of overlapping comms blackouts and several
// hard crashes.
TEST(GoldenFleet, Fleet1024ReportDigestIsPinnedAtTwoJobs) {
  const auto factory = campaign::ScenarioFactory::preset("fleet_1024");
  campaign::CampaignConfig config;
  config.runs = 2;
  config.jobs = 2;
  config.seed = kSeed;
  auto result = campaign::run_campaign(factory, config);
  const std::uint64_t report = fnv1a64(campaign::campaign_json(result));
  EXPECT_EQ(report, 0x900c314496a241e0ULL)
      << "got 0x" << std::hex << report;
  result.metrics = {};
  const std::uint64_t outcome = fnv1a64(campaign::campaign_json(result));
  EXPECT_EQ(outcome, 0x85323e788f14539bULL)
      << "outcome: got 0x" << std::hex << outcome;
}

/// Digest of run 0's per-tick assurance outputs.
std::uint64_t tick_digest(const std::string& preset) {
  const auto runner =
      campaign::ScenarioFactory::preset(preset).make_runner(kSeed, 0);
  const auto result = runner->run();
  EXPECT_FALSE(result.series.empty()) << preset;
  EXPECT_FALSE(result.assurance_trace.empty()) << preset;
  Fnv1a64 d;
  for (const auto& [uav, series] : result.series) {
    d.add(uav);
    for (const auto& rec : series) {
      d.add_bits(rec.p_fail);
      d.add_bits(rec.sar_uncertainty);
      d.add_bits(static_cast<int>(rec.action));
    }
  }
  for (const auto& t : result.assurance_trace) {
    d.add_bits(t.time_s);
    d.add(t.consert);
    d.add(t.from);
    d.add(t.to);
  }
  return d.value();
}

// REPORT-COMPAT EXCEPTION (design-time assets): both re-pinned when the
// design-time EDDI assets left the run's world RNG for the fixed design
// seed (see kGolden).
constexpr Golden kTickGolden[] = {
    {"spoofing", 0x2ff79ba59d1e27c3ULL},
    {"battery_fault", 0x1404d708013e9c79ULL},
};

class GoldenTicks : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTicks, SeriesAndAssuranceTraceDigestIsPinned) {
  const Golden& g = GetParam();
  const std::uint64_t digest = tick_digest(g.preset);
  EXPECT_EQ(digest, g.digest) << g.preset << ": got 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(Presets, GoldenTicks, ::testing::ValuesIn(kTickGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.preset);
                         });

}  // namespace
