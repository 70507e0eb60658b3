#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <optional>

#include "sesame/campaign/report.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/obs/sinks.hpp"
#include "sesame/sim/world.hpp"

namespace perfbench {

namespace {

using sesame::campaign::CampaignConfig;
using sesame::campaign::CampaignResult;
using sesame::campaign::RunOutcome;
using sesame::campaign::ScenarioFactory;

/// Sum of every series named `name` (counters/gauges: value; histograms:
/// sum of observations) — per-topic labels are folded together.
double series_total(const sesame::obs::MetricsSnapshot& snap,
                    const std::string& name) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

double span_total_us(const sesame::obs::MemorySink& sink,
                     const std::string& name) {
  double total = 0.0;
  for (const auto& e : sink.named(name)) total += e.duration_us;
  return total;
}

/// Shares may overshoot 1 (or the residual go below 0) by this much before
/// the attribution self-check fails. The EDDI share comes from a replay
/// timed apart from the run, so host noise between the two moves it.
constexpr double kShareTolerance = 0.1;

void run_once(const RunSpec& spec, bool traced, EddiProbe* eddi,
              LayerPass& pass) {
  const bool probe = eddi != nullptr && spec.factory->base().sesame_enabled;

  sesame::obs::MemorySink sink;
  sesame::obs::Observability o;
  if (traced) o.tracer.set_sink(&sink);

  const auto t0 = Clock::now();
  std::unique_ptr<sesame::platform::MissionRunner> runner;
  {
    auto span = o.tracer.start_span("bench.platform.make_runner");
    runner = spec.factory->make_runner(spec.campaign_seed, spec.run_index);
  }
  const auto t1 = Clock::now();
  // Copies of the run's EDDIs before it ticks them, for the replay. They
  // share the runner's Security EDDI (subscribed to its bus), so they are
  // destroyed before the runner. Copying is left out of the timed parts.
  std::vector<sesame::eddi::UavEddi> eddis;
  if (probe) {
    for (const auto& name : runner->uav_names()) {
      eddis.push_back(runner->uav_eddi(name));
    }
  }
  const auto t1b = Clock::now();
  runner->attach_observability(o);
  const auto t2 = Clock::now();
  sesame::platform::RunnerResult result;
  {
    auto span = o.tracer.start_span("bench.platform.run");
    result = runner->run();
  }
  const auto t3 = Clock::now();
  pass.wall_s += std::chrono::duration<double>((t1 - t0) + (t3 - t1b)).count();

  ++pass.runs;
  pass.invariant_violations += result.invariant_violations.size();
  const auto snap = o.metrics.snapshot();
  pass.step_s += series_total(snap, "sesame.sim.step_duration_seconds");
  pass.sim_steps += series_total(snap, "sesame.sim.steps_total");
  pass.ticks += series_total(snap, "sesame.mission.ticks_total");
  pass.publish += series_total(snap, "sesame.mw.publish_total");
  pass.deliver += series_total(snap, "sesame.mw.deliver_total");
  pass.ids_alerts += series_total(snap, "sesame.security.ids_alerts_total");
  pass.consert_evals += series_total(snap, "sesame.mission.consert_evals_total");
  if (probe) {
    // Every UAV's EDDI ticks once per mission tick in SESAME runs.
    const double eddi_s = eddi->replay_s(eddis, result);
    double ticks = 0.0;
    for (const auto& [uav, records] : result.series) ticks += records.size();
    pass.eddi_s += eddi_s;
    if (ticks > 0) pass.eddi_tick_us.push_back(eddi_s * 1e6 / ticks);
  }
  if (traced) {
    const double make_us = span_total_us(sink, "bench.platform.make_runner");
    const double run_us = span_total_us(sink, "bench.platform.run");
    pass.make_runner_ms.push_back(make_us / 1e3);
    pass.run_ms.push_back(run_us / 1e3);
    pass.run_wall_s += run_us / 1e6;
    pass.consert_eval_s +=
        span_total_us(sink, "sesame.mission.consert_eval") / 1e6;
  } else {
    const double run_s = std::chrono::duration<double>(t3 - t2).count();
    pass.make_runner_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    pass.run_ms.push_back(run_s * 1e3);
    pass.run_wall_s += run_s;
  }
}

}  // namespace

LayerPasses layer_passes(const std::vector<RunSpec>& specs, EddiProbe& eddi) {
  LayerPasses passes;
  for (const RunSpec& spec : specs) {
    run_once(spec, true, &eddi, passes.a);
    run_once(spec, true, &eddi, passes.b);
    run_once(spec, false, nullptr, passes.plain);
  }
  return passes;
}

double publish_probe_ns(const ScenarioFactory& factory,
                        std::uint64_t campaign_seed, std::size_t calls) {
  auto runner = factory.make_runner(campaign_seed, 0);
  sesame::mw::Bus& bus = runner->world().bus();
  const std::string& uav = runner->uav_names().front();
  const auto topic = bus.intern_topic(sesame::sim::telemetry_topic(uav));
  const auto source = bus.intern_source(uav);
  sesame::sim::Telemetry msg;
  msg.uav = uav;
  double t = 0.0;
  const auto batch = [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      msg.time_s = t;
      bus.publish(topic, msg, source, t);
      t += 1.0;
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(calls);
  };
  batch();  // warm-up: first-publish type checks, journal growth
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) ns.push_back(batch());
  return median(ns);
}

void campaign_layer(const ScenarioFactory& factory,
                    const CampaignConfig& config, std::size_t reps,
                    CampaignLayer& layer, Outcome& out) {
  sesame::obs::MemorySink sink;
  sesame::obs::Tracer tracer;
  tracer.set_sink(&sink);
  std::mutex mutex;
  Clock::time_point last_complete;
  std::size_t violations = 0;
  CampaignConfig cfg = config;
  cfg.on_run_complete = [&](const RunOutcome& o,
                            const sesame::obs::MetricsSnapshot*) {
    std::lock_guard<std::mutex> lock(mutex);
    last_complete = Clock::now();
    violations += o.invariant_violations;
  };
  std::optional<std::string> first_report;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    CampaignResult result;
    {
      auto span = tracer.start_span("bench.campaign.run_campaign");
      result = sesame::campaign::run_campaign(factory, cfg);
    }
    const auto returned = Clock::now();
    out.attempted += 1 + result.completed_runs;
    layer.aggregate_ms.push_back(
        std::chrono::duration<double, std::milli>(returned - last_complete)
            .count());
    std::string report;
    for (int i = 0; i < 3; ++i) {
      auto span = tracer.start_span("bench.campaign.report");
      report = sesame::campaign::campaign_json(result);
    }
    for (const auto& e : sink.named("bench.campaign.report")) {
      layer.report_ms.push_back(e.duration_us / 1e3);
    }
    sink.clear();
    if (!first_report) {
      first_report = report;
    } else if (report != *first_report) {
      out.fail("campaign layer: report bytes differ between repetitions");
    }
  }
  if (violations != 0) {
    out.fail("campaign layer: " + std::to_string(violations) +
             " invariant violations");
  }
}

void add_layer_metrics(Outcome& out, const LayerPasses& passes,
                       const MonitorProbes& probes, double publish_ns,
                       const CampaignLayer& campaign,
                       const ServiceLayer& service) {
  const LayerPass& a = passes.a;
  const LayerPass& b = passes.b;
  const LayerPass& plain = passes.plain;
  const double runs = static_cast<double>(a.runs + b.runs);
  const double run_wall = a.run_wall_s + b.run_wall_s;
  const auto per_run = [&](double LayerPass::*field) {
    return (a.*field + b.*field) / runs;
  };
  const auto share = [&](double part) { return part / run_wall; };

  const double sim_share = share(a.step_s + b.step_s);
  const double consert_share = share(a.consert_eval_s + b.consert_eval_s);
  const double eddi_share = share(a.eddi_s + b.eddi_s);
  const double other_share = 1.0 - sim_share - consert_share - eddi_share;

  std::vector<double> make_ms = a.make_runner_ms;
  make_ms.insert(make_ms.end(), b.make_runner_ms.begin(),
                 b.make_runner_ms.end());
  std::vector<double> run_ms = a.run_ms;
  run_ms.insert(run_ms.end(), b.run_ms.begin(), b.run_ms.end());

  out.add("sim.steps", per_run(&LayerPass::sim_steps), "count");
  out.add("sim.step_share", sim_share, "ratio");
  out.add("mw.publish", per_run(&LayerPass::publish), "count");
  out.add("mw.deliver", per_run(&LayerPass::deliver), "count");
  out.add("mw.publish_ns", publish_ns, "ns");
  out.add("platform.make_runner_ms", median(make_ms), "ms");
  out.add("platform.run_ms", median(run_ms), "ms");
  out.add("platform.ticks", per_run(&LayerPass::ticks), "count");
  out.add("platform.other_share", other_share, "ratio");
  std::vector<double> tick_us = a.eddi_tick_us;
  tick_us.insert(tick_us.end(), b.eddi_tick_us.begin(), b.eddi_tick_us.end());
  out.add("eddi.tick_us", median(tick_us), "us");
  out.add("eddi.share", eddi_share, "ratio");
  out.add("safeml.assess_us", probes.safeml_us, "us");
  out.add("deepknowledge.assess_us", probes.deepknowledge_us, "us");
  out.add("safedrones.evaluate_us", probes.safedrones_us, "us");
  out.add("sinadra.assess_us", probes.sinadra_us, "us");
  out.add("conserts.evals", per_run(&LayerPass::consert_evals), "count");
  out.add("conserts.eval_share", consert_share, "ratio");
  out.add("security.ids_alerts", per_run(&LayerPass::ids_alerts), "count");
  out.add("campaign.aggregate_ms", median(campaign.aggregate_ms), "ms");
  out.add("campaign.report_ms", median(campaign.report_ms), "ms");
  out.add("service.http_us", service.http_us, "us");
  out.add("service.first_result_ms_p50", service.first_result_ms_p50, "ms");
  out.add("service.cache_hit_ratio", service.cache_hit_ratio, "ratio");
  out.add("service.rejected", service.rejected, "count");
  const double traced_s = 0.5 * (a.wall_s + b.wall_s);
  out.add("obs.trace_overhead_share", 1.0 - plain.wall_s / traced_s, "ratio");

  // Attribution self-check: the measured parts may not exceed the run wall
  // they are shares of, so no share (the residual included) goes negative.
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "attribution: sim %.4f + conserts %.4f + eddi %.4f + other "
                "%.4f = %.4f over %.0f runs",
                sim_share, consert_share, eddi_share, other_share,
                sim_share + consert_share + eddi_share + other_share, runs);
  out.notes.push_back(buf);
  for (double s : {sim_share, consert_share, eddi_share, other_share}) {
    if (!(s >= -kShareTolerance && s <= 1.0 + kShareTolerance)) {
      out.fail("attribution self-check: a share lies outside [0, 1] by more "
               "than the tolerance");
      break;
    }
  }
  const std::pair<const char*, double LayerPass::*> counts[] = {
      {"sim.steps", &LayerPass::sim_steps},
      {"platform.ticks", &LayerPass::ticks},
      {"mw.publish", &LayerPass::publish},
      {"mw.deliver", &LayerPass::deliver},
      {"conserts.evals", &LayerPass::consert_evals},
      {"security.ids_alerts", &LayerPass::ids_alerts}};
  for (const auto& [name, field] : counts) {
    if (a.*field != b.*field || a.*field != plain.*field) {
      out.fail(std::string("count self-check: ") + name +
               " differs between passes over the same runs");
    }
  }
  out.attempted += a.runs + b.runs + plain.runs;
  const std::size_t violations =
      a.invariant_violations + b.invariant_violations +
      plain.invariant_violations;
  if (violations != 0) {
    out.fail("layer pass: " + std::to_string(violations) +
             " invariant violations");
  }
}

}  // namespace perfbench
