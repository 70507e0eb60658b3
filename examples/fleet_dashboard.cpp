// Fleet dashboard: what the paper's web GUI / ground control station
// renders — live fleet status from the Database Manager, the ConSert
// decisions, runtime metrics from the observability layer, and the ODE
// interchange documents a certification authority would pull from the
// platform.
//
// Run: ./build/examples/fleet_dashboard
#include <algorithm>
#include <cstdio>

#include "sesame/eddi/consert_ode.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/obs/sinks.hpp"
#include "sesame/platform/database.hpp"
#include "sesame/platform/gcs.hpp"
#include "sesame/platform/mission_runner.hpp"

int main() {
  using namespace sesame;

  platform::RunnerConfig config;
  config.n_uavs = 3;
  config.area = {0.0, 200.0, 0.0, 200.0};
  config.n_persons = 5;
  config.max_time_s = 900.0;
  config.battery_fault = platform::BatteryFaultEvent{"uav3", 120.0, 0.40, 70.0};
  // Fleet robustness demo (docs/ROBUSTNESS.md): uav2 is destroyed
  // mid-mission; the recovery subsystem writes it off and re-plans its
  // coverage onto the survivors.
  sim::FailureSchedule schedule;
  sim::FailureEvent crash;
  crash.uav = "uav2";
  crash.mode = sim::FailureMode::kHardCrash;
  crash.time_s = 60.0;
  schedule.events.push_back(crash);
  config.failure_schedule = schedule;
  config.recovery_enabled = true;

  platform::MissionRunner runner(config);

  // Runtime telemetry about the platform itself: per-topic bus counters,
  // step-duration histogram, ConSert evaluation count (docs/OBSERVABILITY.md).
  obs::Observability o;
  obs::MemorySink trace;
  o.tracer.set_sink(&trace);
  runner.attach_observability(o);

  // The dashboard's data source: a GCS-side database fed over the bus,
  // with the ground control station logging operational events. The GCS
  // is the database's client "web_gui", and watch_uav attaches a vehicle.
  platform::DatabaseManager db(runner.world().bus());
  platform::GroundControlStation gcs(runner.world().bus(), db, "web_gui");
  for (const auto& name : runner.uav_names()) gcs.watch_uav(name);
  gcs.log_operator_note(0.0, "mission launch authorized");

  const auto result = runner.run();

  std::printf("============================================================\n");
  std::printf(" SESAME MULTI-UAV PLATFORM — FLEET STATUS\n");
  std::printf("============================================================\n");
  std::printf(" mission: SAR sweep %.0fx%.0f m | t=%.0f s | decision: %s\n",
              config.area.width(), config.area.height(), result.total_time_s,
              conserts::mission_decision_name(result.final_decision).c_str());
  std::printf(" persons: %zu/%zu found | availability: %.1f %%\n\n",
              result.detection.persons_found, result.detection.persons_total,
              100.0 * result.availability);

  // Rows show the last telemetry received; the link column says whether
  // that is current, or the vehicle went silent or was written off.
  std::printf(" %-6s %-10s %-7s %-9s %-8s %-9s %-13s %s\n", "UAV", "lat",
              "lon", "alt (m)", "battery", "mode", "link", "last action");
  for (const auto& name : runner.uav_names()) {
    const auto latest = db.latest("web_gui", name);
    if (!latest) continue;
    const auto& series = result.series.at(name);
    const bool lost = std::ranges::find(result.uavs_lost, name) !=
                      result.uavs_lost.end();
    char battery[16];
    std::snprintf(battery, sizeof battery, "%.0f%%",
                  100.0 * latest->battery_soc);
    std::printf(" %-6s %-10.5f %-7.4f %-9.1f %-8s %-9s %-13s %s\n",
                name.c_str(), latest->reported_position.lat_deg,
                latest->reported_position.lon_deg, latest->altitude_m, battery,
                sim::flight_mode_name(latest->mode).c_str(),
                platform::link_status(lost,
                                      result.total_time_s - latest->time_s)
                    .c_str(),
                conserts::uav_action_name(series.back().action).c_str());
  }
  std::printf(" (mode: last reported; link: live, silent <age>, or LOST ="
              " written off by recovery)\n");

  // Per-UAV availability (the Fig. 5 metric, per vehicle).
  std::printf("\n per-UAV availability:\n");
  for (const auto& [name, avail] : result.availability_per_uav) {
    std::printf("   %-6s %5.1f %%%s\n", name.c_str(), 100.0 * avail,
                name == "uav3" ? "   (battery fault at t=120 s)" : "");
  }

  // GCS live status view (what the web GUI renders).
  std::printf("\n%s",
              gcs.render_status(result.total_time_s, result.uavs_lost).c_str());

  // Operational event log (last ten entries).
  std::printf("\n event log (tail):\n");
  const auto& events = gcs.events();
  const std::size_t from = events.size() > 10 ? events.size() - 10 : 0;
  for (std::size_t i = from; i < events.size(); ++i) {
    std::printf("   [t=%6.0f] %-9s %-6s %s\n", events[i].time_s,
                events[i].category.c_str(), events[i].uav.c_str(),
                events[i].message.c_str());
  }
  std::printf("\n area coverage: %.1f %% of the mission area imaged\n",
              100.0 * result.area_coverage);

  // Fleet recovery: the escalation trail for the crashed vehicle and the
  // safety-invariant verdict (docs/ROBUSTNESS.md).
  std::printf("\n fleet recovery:\n");
  std::printf("   lost vehicles: ");
  if (result.uavs_lost.empty()) {
    std::printf("none");
  } else {
    for (const auto& name : result.uavs_lost) std::printf("%s ", name.c_str());
  }
  std::printf("\n   time to detect loss : %.1f s after the crash\n",
              result.time_to_detect_loss_s);
  std::printf("   time to re-plan     : %.1f s after the crash\n",
              result.time_to_replan_s);
  std::printf("   pings %zu | demotions %zu | RTH %zu | re-plans %zu | "
              "waypoints moved %zu\n",
              result.recovery_pings, result.recovery_demotions,
              result.recovery_rth_commands, result.recovery_replans,
              result.waypoints_redistributed);
  for (const char* name : {"sesame.recovery.ping", "sesame.recovery.demote",
                           "sesame.recovery.rth_commanded",
                           "sesame.recovery.replan",
                           "sesame.recovery.uav_lost"}) {
    for (const auto& ev : trace.named(name)) {
      std::string attrs;
      for (const auto& [key, value] : ev.attributes) {
        attrs += " " + key + "=" + value;
      }
      std::printf("   event %-28s%s\n", name + 7, attrs.c_str());
    }
  }
  std::printf("   safety invariants   : %zu violation(s)\n",
              result.invariant_violations.size());

  // Observability: what a Prometheus scrape of this run would show.
  double publishes = 0.0;
  std::size_t topics = 0;
  for (const auto& s : o.metrics.snapshot().samples) {
    if (s.name == "sesame.mw.publish_total") {
      publishes += s.value;
      ++topics;
    }
  }
  const auto& step_hist =
      o.metrics.histogram("sesame.sim.step_duration_seconds");
  std::printf("\n runtime metrics (%zu series; full dump: campaign_cli"
              " --metrics):\n", o.metrics.series_count());
  std::printf("   bus traffic  : %.0f publications on %zu topics, %.0f"
              " rejected\n", publishes, topics,
              o.metrics.counter("sesame.mw.rejected_total").value());
  std::printf("   world step   : p50 %.1f us / p99 %.1f us over %zu steps\n",
              1e6 * step_hist.quantile(0.50), 1e6 * step_hist.quantile(0.99),
              step_hist.count());
  std::printf("   consert evals: %.0f periodic evaluations\n",
              o.metrics.counter("sesame.mission.consert_evals_total").value());

  // ODE interchange: the assurance models the platform would hand to a
  // certification workflow.
  conserts::ConSertNetwork network;
  for (const auto& name : runner.uav_names()) {
    conserts::add_uav_conserts(network, name);
  }
  const auto doc = eddi::consert_network_to_ode(network);
  const std::string json = doc.to_json();
  std::printf("\n ODE ConSert-network document: %zu ConSerts, %zu bytes\n",
              network.size(), json.size());
  std::printf(" first 160 bytes: %.160s...\n", json.c_str());
  return 0;
}
