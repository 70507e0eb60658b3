#include "sesame/campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "sesame/conserts/uav_network.hpp"
#include "sesame/mathx/stats.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/obs/sinks.hpp"
#include "sesame/platform/design_assets.hpp"

namespace sesame::campaign {

namespace {

/// One extractor row of the summary table: name, per-run value, and
/// whether the run contributes (latency-style metrics only exist for runs
/// where the event happened).
struct MetricSpec {
  const char* name;
  double (*value)(const RunOutcome&);
  bool (*contributes)(const RunOutcome&);
};

bool always(const RunOutcome&) { return true; }

const MetricSpec kMetricSpecs[] = {
    {"total_time_s", [](const RunOutcome& o) { return o.total_time_s; },
     always},
    {"mission_complete_rate",
     [](const RunOutcome& o) { return o.mission_complete ? 1.0 : 0.0; },
     always},
    {"mission_complete_time_s",
     [](const RunOutcome& o) { return o.mission_complete_time_s; },
     [](const RunOutcome& o) { return o.mission_complete; }},
    {"availability", [](const RunOutcome& o) { return o.availability; },
     always},
    {"area_coverage", [](const RunOutcome& o) { return o.area_coverage; },
     always},
    {"recall",
     [](const RunOutcome& o) {
       return o.persons_total == 0
                  ? 0.0
                  : static_cast<double>(o.persons_found) /
                        static_cast<double>(o.persons_total);
     },
     always},
    {"min_soc", [](const RunOutcome& o) { return o.min_soc; }, always},
    {"soc_at_rth", [](const RunOutcome& o) { return o.soc_at_rth; },
     [](const RunOutcome& o) { return o.soc_at_rth >= 0.0; }},
    {"attack_detection_rate",
     [](const RunOutcome& o) { return o.attack_detected ? 1.0 : 0.0; },
     always},
    {"attack_detection_latency_s",
     [](const RunOutcome& o) { return o.attack_detection_latency_s; },
     [](const RunOutcome& o) { return o.attack_detection_latency_s >= 0.0; }},
    {"waypoints_redistributed",
     [](const RunOutcome& o) {
       return static_cast<double>(o.waypoints_redistributed);
     },
     always},
    {"faults_dropped",
     [](const RunOutcome& o) { return static_cast<double>(o.faults_dropped); },
     always},
    {"faults_delayed",
     [](const RunOutcome& o) { return static_cast<double>(o.faults_delayed); },
     always},
    {"faults_duplicated",
     [](const RunOutcome& o) {
       return static_cast<double>(o.faults_duplicated);
     },
     always},
    {"rejected_publications",
     [](const RunOutcome& o) {
       return static_cast<double>(o.rejected_publications);
     },
     always},
    {"uavs_lost",
     [](const RunOutcome& o) { return static_cast<double>(o.uavs_lost); },
     always},
    {"invariant_violations",
     [](const RunOutcome& o) {
       return static_cast<double>(o.invariant_violations);
     },
     always},
    {"recovery_replans",
     [](const RunOutcome& o) {
       return static_cast<double>(o.recovery_replans);
     },
     always},
    {"time_to_detect_loss_s",
     [](const RunOutcome& o) { return o.time_to_detect_loss_s; },
     [](const RunOutcome& o) { return o.time_to_detect_loss_s >= 0.0; }},
    {"time_to_replan_s",
     [](const RunOutcome& o) { return o.time_to_replan_s; },
     [](const RunOutcome& o) { return o.time_to_replan_s >= 0.0; }},
};

}  // namespace

RunOutcome extract_outcome(std::uint64_t run_index, std::uint64_t seed,
                           const platform::RunnerResult& result,
                           const mw::Bus& bus, bool attack_scheduled,
                           double attack_time_s) {
  RunOutcome o;
  o.run_index = run_index;
  o.seed = seed;
  o.mission_complete = result.mission_complete_time_s.has_value();
  o.mission_complete_time_s = result.mission_complete_time_s.value_or(-1.0);
  o.total_time_s = result.total_time_s;
  o.availability = result.availability;
  o.area_coverage = result.area_coverage;
  o.persons_found = result.detection.persons_found;
  o.persons_total = result.detection.persons_total;
  for (const auto& [uav, series] : result.series) {
    bool rth_seen = false;
    for (const auto& rec : series) {
      o.min_soc = std::min(o.min_soc, rec.soc);
      if (!rth_seen && (rec.mode == sim::FlightMode::kReturnToBase ||
                        rec.mode == sim::FlightMode::kEmergencyLand)) {
        rth_seen = true;
        if (o.soc_at_rth < 0.0 || rec.soc < o.soc_at_rth) {
          o.soc_at_rth = rec.soc;
        }
      }
    }
  }
  o.attack_detected = result.attack_detected;
  if (attack_scheduled && result.attack_detected &&
      result.attack_detection_time_s >= 0.0) {
    o.attack_detection_latency_s =
        result.attack_detection_time_s - attack_time_s;
  }
  o.waypoints_redistributed = result.waypoints_redistributed;
  o.descended = result.descended;
  o.uavs_lost = result.uavs_lost.size();
  o.invariant_violations = result.invariant_violations.size();
  o.recovery_pings = result.recovery_pings;
  o.recovery_demotions = result.recovery_demotions;
  o.recovery_rth_commands = result.recovery_rth_commands;
  o.recovery_replans = result.recovery_replans;
  o.time_to_detect_loss_s = result.time_to_detect_loss_s;
  o.time_to_replan_s = result.time_to_replan_s;
  o.final_decision = conserts::mission_decision_name(result.final_decision);
  o.faults_dropped = bus.faults_dropped();
  o.faults_delayed = bus.faults_delayed();
  o.faults_duplicated = bus.faults_duplicated();
  o.rejected_publications = bus.rejected_publications();
  return o;
}

std::vector<StatSummary> summarize(const std::vector<RunOutcome>& outcomes) {
  std::vector<StatSummary> summaries;
  summaries.reserve(std::size(kMetricSpecs));
  for (const auto& spec : kMetricSpecs) {
    StatSummary s;
    s.metric = spec.name;
    std::vector<double> values;
    values.reserve(outcomes.size());
    for (const auto& o : outcomes) {
      if (spec.contributes(o)) values.push_back(spec.value(o));
    }
    s.count = values.size();
    if (!values.empty()) {
      s.mean = mathx::mean(values);
      s.min = mathx::min_value(values);
      s.p50 = mathx::quantile(values, 0.5);
      s.p90 = mathx::quantile(values, 0.9);
      s.max = mathx::max_value(values);
      // Spread statistics need at least two samples; below that they stay
      // NaN (rendered as null/empty by the report writers) instead of a
      // misleading zero-width interval.
      if (values.size() >= 2) {
        s.stddev = mathx::stddev(values);
        const double half = mathx::normal_quantile(0.975) * s.stddev /
                            std::sqrt(static_cast<double>(values.size()));
        s.ci95_lo = s.mean - half;
        s.ci95_hi = s.mean + half;
      }
    }
    summaries.push_back(std::move(s));
  }
  return summaries;
}

CampaignResult run_campaign(const ScenarioFactory& factory,
                            const CampaignConfig& config) {
  const auto wall0 = std::chrono::steady_clock::now();

  CampaignResult result;
  result.seed = config.seed;
  result.runs = config.runs;
  result.outcomes.resize(config.runs);

  std::size_t jobs = config.jobs != 0
                         ? config.jobs
                         : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::max<std::size_t>(1, std::min(jobs, std::max<std::size_t>(
                                                     config.runs, 1)));
  result.jobs_used = jobs;

  // Per-run metric snapshots, merged in index order after the pool joins —
  // merging inside the workers would make float accumulation order (and so
  // the merged bits) depend on the run-to-worker schedule.
  std::vector<obs::MetricsSnapshot> snapshots(
      config.collect_metrics ? config.runs : 0);
  // Per-run trace buffers, replayed into config.trace in index order after
  // the join for the same reason.
  std::vector<obs::MemorySink> traces(config.trace != nullptr ? config.runs
                                                              : 0);

  // Design-time EDDI assets: one library lookup before the pool, so the
  // runs find them ready (config_for_run changes no design input). The
  // wait is microseconds on a hit and milliseconds on a build.
  const bool sesame = factory.base().sesame_enabled;
  double design_seconds = 0.0;
  if (sesame) {
    const auto t0 = std::chrono::steady_clock::now();
    platform::design_library().get(factory.base());
    design_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

  const bool attack_scheduled = factory.base().spoofing.has_value();
  const double attack_time_s =
      attack_scheduled ? factory.base().spoofing->time_s : 0.0;

  std::atomic<std::size_t> next_run{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // One slot per run; workers write disjoint slots, the post-join scan is
  // the only cross-slot reader.
  std::vector<unsigned char> completed(config.runs, 0);

  const auto worker = [&] {
    for (;;) {
      if (config.stop && config.stop->load(std::memory_order_relaxed)) {
        return;  // drain: stop claiming, in-flight runs already finished
      }
      const std::size_t i = next_run.fetch_add(1, std::memory_order_relaxed);
      if (i >= config.runs) return;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error) return;  // fail fast: stop claiming new runs
      }
      try {
        const std::uint64_t seed = derive_run_seed(config.seed, i);
        auto runner = factory.make_runner(config.seed, i);
        obs::Observability o;
        if (config.trace != nullptr) o.tracer.set_sink(&traces[i]);
        if (config.collect_metrics || config.trace != nullptr) {
          runner->attach_observability(o);
        }
        const platform::RunnerResult run_result = runner->run();
        result.outcomes[i] =
            extract_outcome(i, seed, run_result, runner->world().bus(),
                            attack_scheduled, attack_time_s);
        if (config.collect_metrics) snapshots[i] = o.metrics.snapshot();
        completed[i] = 1;
        if (config.on_run_complete) {
          config.on_run_complete(
              result.outcomes[i],
              config.collect_metrics ? &snapshots[i] : nullptr);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  if (jobs == 1) {
    worker();  // in-process: keeps single-job campaigns debugger-friendly
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  std::size_t done = 0;
  for (const unsigned char c : completed) done += c;
  result.completed_runs = done;
  result.interrupted = done < config.runs;
  if (result.interrupted) {
    // Drain fired mid-campaign: keep only the completed runs (in index
    // order). Interrupted results never feed reports or caches, so the
    // subset's composition may legitimately depend on timing.
    std::vector<RunOutcome> kept;
    kept.reserve(done);
    for (std::size_t i = 0; i < config.runs; ++i) {
      if (completed[i]) kept.push_back(std::move(result.outcomes[i]));
    }
    result.outcomes = std::move(kept);
  }

  if (config.trace != nullptr) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (!completed[i]) continue;
      const std::string run = std::to_string(i);
      for (obs::TraceEvent event : traces[i].events()) {
        event.attributes.emplace_back("run", run);
        config.trace->consume(event);
      }
      traces[i].clear();
    }
  }

  if (config.collect_metrics) {
    obs::MetricsRegistry merged;
    // Stamp each snapshot with its run index so gauge merges are pinned to
    // run order, not merge order — any consumer re-folding these snapshots
    // (the service streams them completion-ordered) lands on the same bits.
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      if (!completed[i]) continue;
      merged.merge(snapshots[i], i + 1);
    }
    if (sesame) {
      merged.histogram("sesame.campaign.design_assets_seconds")
          .observe(design_seconds);
    }
    result.metrics = merged.snapshot();
  }
  result.summaries = summarize(result.outcomes);
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  return result;
}

}  // namespace sesame::campaign
