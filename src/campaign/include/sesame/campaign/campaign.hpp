// Parallel Monte Carlo campaign runner.
//
// The paper reports each scenario (Figs. 5-7) as a single seeded run; every
// headline number — detection latency, spoofing-detection rate under loss,
// battery-failure margins — is really a statistical claim that needs many
// seeded repetitions. A campaign executes N scenario runs on a worker pool
// and aggregates their outcomes into mean / 95% CI / quantile summaries,
// in the spirit of statistical model checking over the SafeDrones models.
//
// Determinism contract (tested: reports are byte-identical for any --jobs):
//  - Each worker owns a fully isolated stack per run (mw::Bus + sim::World
//    + MissionRunner + a per-run obs::MetricsRegistry); no mutable state is
//    shared between in-flight runs.
//  - Run i's seed is derive_run_seed(campaign_seed, i) — a pure function
//    of the campaign seed and the run index, never of thread assignment.
//  - Outcomes land in a pre-sized slot vector indexed by run; aggregation
//    and metric merging walk that vector in index order after the pool
//    joins, so floating-point reductions see one fixed operand order.
//  - Wall-clock observables (worker timings, `_seconds` histograms) are
//    kept out of the deterministic report surface (see report.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sesame/campaign/scenario_factory.hpp"
#include "sesame/obs/metrics.hpp"
#include "sesame/obs/trace.hpp"

namespace sesame::campaign {

struct RunOutcome;

struct CampaignConfig {
  std::size_t runs = 16;
  /// Worker threads; 0 = one per hardware thread.
  std::size_t jobs = 1;
  /// Campaign seed; run i simulates with derive_run_seed(seed, i).
  std::uint64_t seed = 1;
  /// Attach a per-run metrics registry and merge all runs' series into
  /// CampaignResult::metrics (in run order).
  bool collect_metrics = true;

  /// Cooperative drain: when non-null and set, workers stop claiming new
  /// runs (in-flight runs finish at run granularity — a run is never torn
  /// mid-simulation). The result then reports interrupted = true and holds
  /// only the completed runs. Owned by the caller (a signal handler flag,
  /// the service's shutdown latch); must outlive run_campaign.
  const std::atomic<bool>* stop = nullptr;

  /// Progress hook, invoked from the worker thread that finished run i with
  /// its outcome and per-run metrics snapshot (nullptr when collect_metrics
  /// is off). Callbacks race across workers — the callee synchronizes.
  /// Stamped gauge merges (run index + 1) let a callee fold snapshots in
  /// completion order and still land on the report's exact merged bits.
  std::function<void(const RunOutcome&, const obs::MetricsSnapshot*)>
      on_run_complete;

  /// Trace destination (campaign_cli --trace). When non-null, every run's
  /// tracer records into its own in-memory buffer; after the pool joins,
  /// the buffered events are handed to this sink in run-index order on the
  /// calling thread (the sink needs no locking), each tagged with a "run"
  /// attribute because span ids restart in every run. Tracing never moves
  /// a report byte. Owned by the caller; must outlive run_campaign.
  obs::TraceSink* trace = nullptr;
};

/// Scalar outcome of one campaign run (the per-run RunnerResult reduced to
/// what campaign statistics consume; time series are dropped).
struct RunOutcome {
  std::uint64_t run_index = 0;
  std::uint64_t seed = 0;

  bool mission_complete = false;
  double mission_complete_time_s = -1.0;  ///< -1 when never completed
  double total_time_s = 0.0;
  double availability = 0.0;
  double area_coverage = 0.0;
  std::size_t persons_found = 0;
  std::size_t persons_total = 0;

  /// Lowest state of charge any UAV reached during the run (the Fig. 5
  /// battery margin).
  double min_soc = 1.0;
  /// SoC at the moment the first UAV entered ReturnToBase/EmergencyLand;
  /// -1 when no UAV ever did.
  double soc_at_rth = -1.0;

  bool attack_detected = false;
  /// Detection latency from attack start (Fig. 6); -1 when not detected
  /// or no attack was scheduled.
  double attack_detection_latency_s = -1.0;

  std::size_t waypoints_redistributed = 0;
  bool descended = false;
  std::string final_decision;

  // Recovery-subsystem outcomes (all zero / -1 when recovery is off).
  std::size_t uavs_lost = 0;
  std::size_t invariant_violations = 0;  ///< must be 0 in a healthy build
  std::size_t recovery_pings = 0;
  std::size_t recovery_demotions = 0;
  std::size_t recovery_rth_commands = 0;
  std::size_t recovery_replans = 0;
  /// Silence onset -> recovery escalation start; -1 when no loss happened.
  double time_to_detect_loss_s = -1.0;
  /// Silence onset -> first coverage re-plan; -1 when none happened.
  double time_to_replan_s = -1.0;

  // Bus / fault counters for the alert-and-fault roll-up.
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t rejected_publications = 0;
};

/// Mean / spread / quantile digest of one outcome metric across the runs
/// that contributed to it (latencies only exist for runs where the event
/// happened; `count` says how many).
///
/// Statistics that are mathematically undefined stay NaN: every field when
/// count == 0, and stddev / ci95_* when count < 2 (a single sample has no
/// spread). Report writers render NaN as JSON `null` / an empty CSV cell —
/// a literal "nan" never reaches serialized output (RFC 8259 has no such
/// token).
struct StatSummary {
  static constexpr double kUndefined =
      std::numeric_limits<double>::quiet_NaN();

  std::string metric;
  std::size_t count = 0;  ///< contributing runs; 0 = nothing below defined
  double mean = kUndefined;
  double stddev = kUndefined;  ///< undefined (NaN) when count < 2
  double ci95_lo = kUndefined;  ///< normal-approximation 95% CI of the mean
  double ci95_hi = kUndefined;
  double min = kUndefined;
  double p50 = kUndefined;
  double p90 = kUndefined;
  double max = kUndefined;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  std::size_t runs = 0;                ///< runs requested by the config
  std::vector<RunOutcome> outcomes;    ///< completed runs, by run index
  std::vector<StatSummary> summaries;  ///< fixed metric order
  /// Per-run registries merged in run order (campaign-level histograms).
  obs::MetricsSnapshot metrics;
  /// True when the config's stop flag fired before every run finished:
  /// outcomes/summaries/metrics then cover only the completed subset (an
  /// interrupted result is NOT part of the byte-identity contract and must
  /// not be exported as a report or cached).
  bool interrupted = false;
  std::size_t completed_runs = 0;  ///< == runs unless interrupted
  /// Execution footprint — depends on load and --jobs, so report writers
  /// exclude both from the deterministic report surface.
  std::size_t jobs_used = 0;
  double wall_seconds = 0.0;
};

/// Reduces a finished run to its outcome scalars (exposed for tests and
/// for callers that drive MissionRunner themselves).
RunOutcome extract_outcome(std::uint64_t run_index, std::uint64_t seed,
                           const platform::RunnerResult& result,
                           const mw::Bus& bus,
                           bool attack_scheduled, double attack_time_s);

/// Computes the campaign summary table from outcomes (in the order given;
/// call with outcomes sorted by run index for deterministic results).
std::vector<StatSummary> summarize(const std::vector<RunOutcome>& outcomes);

/// Executes the campaign: `config.runs` seeded repetitions of the
/// factory's scenario on `config.jobs` workers. Runs are claimed from a
/// shared counter, so workers stay busy regardless of per-run variance.
/// The first exception thrown by any run is rethrown after the pool joins.
CampaignResult run_campaign(const ScenarioFactory& factory,
                            const CampaignConfig& config);

}  // namespace sesame::campaign
