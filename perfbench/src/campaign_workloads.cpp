// spoofing_sesame: one campaign of the workload's preset, repeated back to
// back for the timed window, each report checked against a jobs=1
// reference computed before the window.
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "layers.hpp"
#include "sesame/campaign/report.hpp"

namespace perfbench {

namespace {

using sesame::campaign::CampaignConfig;
using sesame::campaign::CampaignResult;
using sesame::campaign::RunOutcome;
using sesame::campaign::ScenarioFactory;

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

}  // namespace

Outcome run_campaign_timed(const Options& options) {
  Outcome out;
  const CampaignSpec spec = campaign_spec(options);
  out.jobs = thread_budget();

  // Set-up, repeated: build the factory and one full runner stack (scenario
  // wiring, EDDI calibration, world construction). setup_s is the median.
  std::vector<double> setups;
  std::optional<ScenarioFactory> factory;
  for (std::size_t rep = 0; rep < options.sizing.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    ScenarioFactory f = ScenarioFactory::preset(spec.preset);
    f.make_runner(spec.campaign_seed, 0);
    setups.push_back(seconds_since(t0));
    factory.emplace(std::move(f));
  }

  CampaignConfig config;
  config.runs = spec.runs;
  config.seed = spec.campaign_seed;

  // Reference report: once per (workload, seed), jobs=1, before the window.
  const auto ref_t0 = Clock::now();
  config.jobs = 1;
  const CampaignResult reference_result =
      sesame::campaign::run_campaign(*factory, config);
  const std::string reference = sesame::campaign::campaign_json(reference_result);
  const double reference_s = seconds_since(ref_t0);
  out.attempted += reference_result.completed_runs;
  for (const RunOutcome& o : reference_result.outcomes) {
    if (o.invariant_violations != 0) {
      out.fail("reference run " + std::to_string(o.run_index) +
               " reports invariant violations");
    }
  }

  // Timed window. Per-run wall time is the gap between one worker's
  // consecutive on_run_complete callbacks (the first measured from the
  // campaign start).
  std::mutex mutex;
  std::map<std::thread::id, Clock::time_point> last_by_worker;
  Clock::time_point campaign_start;
  std::vector<double> run_ms;
  std::size_t violations = 0;
  config.jobs = out.jobs;
  config.on_run_complete = [&](const RunOutcome& o,
                               const sesame::obs::MetricsSnapshot*) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, fresh] =
        last_by_worker.try_emplace(std::this_thread::get_id(), campaign_start);
    run_ms.push_back(
        std::chrono::duration<double, std::milli>(now - it->second).count());
    it->second = now;
    if (o.invariant_violations != 0) ++violations;
  };

  std::vector<double> report_ms;
  std::size_t runs = 0;
  std::size_t campaigns = 0;
  double campaign_wall_s = 0.0;
  const auto window_start = Clock::now();
  while (campaigns == 0 || seconds_since(window_start) < options.seconds) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      last_by_worker.clear();
      campaign_start = Clock::now();
    }
    const auto t0 = Clock::now();
    const CampaignResult result =
        sesame::campaign::run_campaign(*factory, config);
    const std::string report = sesame::campaign::campaign_json(result);
    report_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    ++campaigns;
    runs += result.completed_runs;
    campaign_wall_s += result.wall_seconds;
    out.attempted += 1 + result.completed_runs;
    if (report != reference) {
      out.fail("campaign " + std::to_string(campaigns) +
               ": report bytes differ from the jobs=1 reference");
    }
  }
  const double window_s = seconds_since(window_start);
  for (std::size_t i = 0; i < violations; ++i) {
    out.fail("a timed run reports invariant violations");
  }

  const double runs_per_s = static_cast<double>(runs) / window_s;
  out.add("setup_s", median(setups), "s");
  out.add("runs_per_s", runs_per_s, "1/s");
  out.add("campaigns_per_s", static_cast<double>(campaigns) / window_s, "1/s");
  out.add("report_ms_p50", median(report_ms), "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");

  out.notes.push_back("campaign: preset " + spec.preset + ", " +
                      std::to_string(spec.runs) + " runs, jobs " +
                      std::to_string(out.jobs) + ", " +
                      std::to_string(campaigns) + " campaigns timed");
  out.notes.push_back(tail_note("run_ms_p50", run_ms, 0.5, "ms"));
  out.notes.push_back(tail_note("run_ms_p90", run_ms, 0.9, "ms"));
  out.notes.push_back(tail_note("report_ms_p90", report_ms, 0.9, "ms"));
  out.notes.push_back(fmt("reference_s=%.4f (jobs=1, %.0f runs)", reference_s,
                          static_cast<double>(spec.runs)));
  // runs_per_s is taken over the steady-clock window; the campaign's own
  // wall_seconds excludes report writing and the gaps between campaigns,
  // so it reads slightly higher.
  out.rate_vs_wall_seconds =
      runs_per_s / (static_cast<double>(runs) / campaign_wall_s);
  out.notes.push_back(
      fmt("wall cross-check: runs_per_s / (runs / sum(wall_seconds)) = %.4f",
          out.rate_vs_wall_seconds));
  return out;
}

Outcome run_campaign_traced(const Options& options) {
  Outcome out;
  const CampaignSpec spec = campaign_spec(options);
  out.jobs = thread_budget();
  const ScenarioFactory factory = ScenarioFactory::preset(spec.preset);

  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < options.sizing.traced_campaign_runs; ++i) {
    specs.push_back({&factory, spec.campaign_seed, i});
  }
  EddiProbe eddi(options.seed, options.sizing.probe_calls);
  const LayerPasses passes = layer_passes(specs, eddi);
  const MonitorProbes probes = eddi.measure();
  const double publish_ns = publish_probe_ns(
      factory, spec.campaign_seed, options.sizing.probe_calls * 10);

  CampaignConfig config;
  config.runs = spec.runs;
  config.seed = spec.campaign_seed;
  config.jobs = out.jobs;
  CampaignLayer campaign;
  campaign_layer(factory, config, 3, campaign, out);

  add_layer_metrics(out, passes, probes, publish_ns, campaign,
                    ServiceLayer{});
  return out;
}

}  // namespace perfbench
