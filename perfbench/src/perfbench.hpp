// Stack benchmark: workloads, metric tables and shared helpers.
//
// The benchmark drives the repository only through public entry points —
// campaign::run_campaign, ScenarioFactory::make_runner, MissionRunner::run /
// attach_observability, and the service's HTTP adapter
// (HttpConnection::feed + handle_request) — so it measures the stack the
// way a user runs it. See perfbench/README.md for the workloads, the
// metric definitions and the layer -> metric -> workload table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sesame/campaign/scenario_factory.hpp"
#include "sesame/service/submission.hpp"

namespace perfbench {

/// Name and unit of a metric; BENCHMARK.json owns directions and bounds.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of a timed run (tracing off), reported for every workload.
const std::vector<MetricSpec>& end_to_end_specs();
/// Metrics of a traced run, reported for every workload (0 where the layer
/// is not on the workload's path; see README.md).
const std::vector<MetricSpec>& per_layer_specs();
const std::vector<std::string>& workload_names();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Run sizes. The defaults are what the benchmark measures; `smoke()` is
/// the self-test size (same code paths, seconds instead of minutes).
struct Sizing {
  std::size_t spoofing_runs = 32;     ///< runs per spoofing_sesame campaign
  std::size_t setup_reps = 15;        ///< set-ups per run; setup_s = median
  std::size_t traced_campaign_runs = 8;  ///< layer-pass runs, campaign workloads
  std::size_t traced_mix_runs = 8;    ///< layer-pass runs drawn from the mix
  std::size_t traced_mix_submissions = 40;  ///< per client, traced service pass
  /// Per client, the count-limited service_mix loop peak_rss_mb is read after.
  std::size_t rss_mix_submissions = 400;
  std::size_t probe_calls = 2000;     ///< calls per probe batch

  static Sizing smoke();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizing sizing;
};

/// Hardware threads of this host (std::thread::hardware_concurrency).
std::size_t num_cpus();
/// Threads the benchmark may use: num_cpus(), capped at 4 (the reference
/// host's nproc).
std::size_t thread_budget();

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines: sample counts, tails, self-check verdicts.
  std::vector<std::string> notes;
  std::size_t jobs = 0;       ///< campaign worker threads
  std::size_t executors = 0;  ///< service executors (service_mix)
  std::size_t clients = 0;    ///< service client threads (service_mix)
  /// Campaign workloads: runs_per_s over runs / sum of the campaigns'
  /// CampaignResult::wall_seconds (the wall-clock cross-check, <= 1).
  double rate_vs_wall_seconds = 0.0;

  void fail(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit);
};

/// Runs one workload in the mode `options.trace` selects. Throws
/// std::invalid_argument for an unknown workload name.
Outcome run_workload(const Options& options);

// --- workloads (one translation unit each) ---
Outcome run_campaign_timed(const Options& options);
Outcome run_campaign_traced(const Options& options);
Outcome run_service_timed(const Options& options);
Outcome run_service_traced(const Options& options);

/// The campaign a campaign workload repeats: preset, runs, campaign seed.
struct CampaignSpec {
  std::string preset;
  std::size_t runs = 0;
  std::uint64_t campaign_seed = 0;
};
CampaignSpec campaign_spec(const Options& options);

// --- service mix ---

/// One submission of a client's closed loop. A repeat is an exact copy of
/// the client's most recent unique submission, so it must hit the cache.
struct MixItem {
  sesame::service::Submission submission;
  bool repeat = false;
};

/// Unique submissions and repeats per block of the mix (repeat share =
/// kMixRepeatsPerBlock / kMixBlock).
inline constexpr std::size_t kMixBlock = 10;
inline constexpr std::size_t kMixRepeatsPerBlock = 2;

/// Client `client`'s first `count` submissions for workload seed `seed`.
/// Every block of kMixBlock holds each of the presets nominal,
/// battery_fault, spoofing, baseline at 1 and 2 runs once plus
/// kMixRepeatsPerBlock repeats, in a seeded order, with seeded tenants and
/// unique campaign seeds.
std::vector<MixItem> generate_mix(std::uint64_t seed, std::size_t client,
                                  std::size_t count);

// --- helpers ---

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0);
/// Linear-interpolated quantile of `v` (copied and sorted).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Samples strictly above the q-quantile.
std::size_t samples_beyond(const std::vector<double>& v, double q);
/// "p90=12.3 ms (n=640, 64 beyond)" style line; flags unsupported tails.
std::string tail_note(const std::string& name, const std::vector<double>& v,
                      double q, const std::string& unit);
/// Peak resident set of this process, MiB.
double peak_rss_mb();
/// SplitMix64 finalizer (workload-seed derivation).
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
