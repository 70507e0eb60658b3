// Monte Carlo campaign runner: execute N seeded repetitions of a scenario
// on a worker pool and aggregate the outcomes into mean/CI/quantile
// summaries — the statistical backing for the paper's single-run figures,
// and (with --runs 1 --metrics/--trace) the way to inspect one run.
//
// Usage:
//   campaign_cli [--preset NAME] [--config FILE.json]
//                [--runs N] [--jobs J] [--seed S]
//                [--uavs N] [--area-m M] [--altitude-m A] [--persons P]
//                [--max-time S] [--baseline]
//                [--battery-fault UAV:T] [--spoof UAV:T]
//                [--fault-plan FILE] [--link-loss]
//                [--chaos] [--fail-on-violation]
//                [--json FILE] [--csv PREFIX] [--no-metrics]
//                [--metrics FILE|-] [--trace FILE.jsonl]
//
// --preset picks a paper scenario (nominal | battery_fault | spoofing |
//   spoofing_lossy | baseline | chaos | fleet_1024); later flags override
//   it. --config loads a platform::config_io JSON scenario file instead
//   (mutually composable: preset, then config, then flags).
// --seed is the campaign seed, any uint64: run i simulates with
//   derive_run_seed(S, i), so even --runs 1 does not fly world seed S.
//   --seed, --runs and --jobs take plain decimal digits; anything else
//   exits 2.
// --jobs 0 uses one worker per hardware thread. Campaign results are
//   bit-identical for any --jobs value (docs/CAMPAIGN.md: determinism).
// --fault-plan applies a message-fault schedule to the bus (drop/delay/
//   duplicate/reorder; format in docs/FAULT_INJECTION.md); --link-loss
//   turns on the distance-dependent UAV<->GCS radio model.
// --chaos gives every run a seed-derived random vehicle-failure schedule
//   (motor loss, sensor dropout, battery fault, comms blackout, hard
//   crash) with the recovery subsystem active (docs/ROBUSTNESS.md).
// --fail-on-violation exits 3 when any run reports a safety-invariant
//   violation (the chaos-stress CI gate).
// --json / --csv write the campaign report (schema in docs/CAMPAIGN.md).
// --metrics dumps the run-ordered merge of every run's metrics registry
//   in Prometheus text format ("-" = stdout), wall-clock `_seconds`
//   series included; --trace writes every run's span/event trace as JSON
//   lines, run by run, each event tagged with its "run" index. See
//   docs/OBSERVABILITY.md for both formats. Neither changes the report.
//
// SIGINT/SIGTERM drain gracefully: in-flight runs finish, workers join,
// and no report is written (exit 4) — a report on disk is always complete.
//
// Examples:
//   campaign_cli --preset spoofing --runs 200 --jobs 0 --json camp.json
//   campaign_cli --preset battery_fault --runs 100 --link-loss --csv out
//   campaign_cli --chaos --runs 32 --jobs 0 --fail-on-violation
//   campaign_cli --preset spoofing --runs 1 --metrics - --trace run.jsonl
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/obs/sinks.hpp"
#include "sesame/platform/config_io.hpp"
#include "sesame/service/drain.hpp"
#include "unsigned_flag.hpp"

namespace {

std::pair<std::string, double> parse_event(const char* arg) {
  const std::string s(arg);
  const auto colon = s.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    std::fprintf(stderr, "expected UAV:TIME, got '%s'\n", arg);
    std::exit(2);
  }
  return {s.substr(0, colon), std::atof(s.c_str() + colon + 1)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sesame;

  platform::RunnerConfig scenario = campaign::ScenarioFactory::default_scenario();
  campaign::CampaignConfig campaign_config;
  campaign_config.runs = 16;
  campaign_config.jobs = 1;
  campaign_config.seed = 1;
  std::string json_path;
  std::string csv_prefix;
  std::string metrics_path;
  std::string trace_path;
  bool chaos = false;
  bool fail_on_violation = false;

  // First pass: --preset / --config shape the scenario before overrides.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--preset") == 0) {
      try {
        const auto preset = campaign::ScenarioFactory::preset(argv[i + 1]);
        scenario = preset.base();
        if (preset.chaos_enabled()) chaos = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--preset: %s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--config") == 0) {
      scenario = platform::load_config(argv[i + 1]);
    }
  }

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--preset") == 0 ||
        std::strcmp(argv[i], "--config") == 0) {
      need_value(argv[i]);  // applied in the first pass
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      campaign_config.runs =
          parse_unsigned_flag<std::size_t>("--runs", need_value("--runs"));
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      campaign_config.jobs =
          parse_unsigned_flag<std::size_t>("--jobs", need_value("--jobs"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      campaign_config.seed =
          parse_unsigned_flag<std::uint64_t>("--seed", need_value("--seed"));
    } else if (std::strcmp(argv[i], "--uavs") == 0) {
      scenario.n_uavs = static_cast<std::size_t>(std::atoi(need_value("--uavs")));
    } else if (std::strcmp(argv[i], "--area-m") == 0) {
      const double side = std::atof(need_value("--area-m"));
      scenario.area = {0.0, side, 0.0, side};
    } else if (std::strcmp(argv[i], "--altitude-m") == 0) {
      scenario.coverage.altitude_m = std::atof(need_value("--altitude-m"));
    } else if (std::strcmp(argv[i], "--persons") == 0) {
      scenario.n_persons =
          static_cast<std::size_t>(std::atoi(need_value("--persons")));
    } else if (std::strcmp(argv[i], "--max-time") == 0) {
      scenario.max_time_s = std::atof(need_value("--max-time"));
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      scenario.sesame_enabled = false;
    } else if (std::strcmp(argv[i], "--battery-fault") == 0) {
      const auto [uav, t] = parse_event(need_value("--battery-fault"));
      scenario.battery_fault = platform::BatteryFaultEvent{uav, t, 0.40, 70.0};
    } else if (std::strcmp(argv[i], "--spoof") == 0) {
      const auto [uav, t] = parse_event(need_value("--spoof"));
      scenario.spoofing = platform::SpoofingEvent{uav, t, 2.0};
    } else if (std::strcmp(argv[i], "--fault-plan") == 0) {
      try {
        scenario.fault_plan = mw::load_fault_plan(need_value("--fault-plan"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--fault-plan: %s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--link-loss") == 0) {
      scenario.lossy_links = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--fail-on-violation") == 0) {
      fail_on_violation = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv_prefix = need_value("--csv");
    } else if (std::strcmp(argv[i], "--no-metrics") == 0) {
      campaign_config.collect_metrics = false;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = need_value("--metrics");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = need_value("--trace");
    } else {
      std::fprintf(stderr, "unknown flag '%s' (see the file header)\n", argv[i]);
      return 2;
    }
  }
  if (campaign_config.runs == 0) {
    std::fprintf(stderr, "--runs must be positive\n");
    return 2;
  }
  if (!metrics_path.empty() && !campaign_config.collect_metrics) {
    std::fprintf(stderr, "--metrics and --no-metrics are exclusive\n");
    return 2;
  }
  std::unique_ptr<obs::JsonLinesSink> trace_sink;
  if (!trace_path.empty()) {
    try {
      trace_sink = std::make_unique<obs::JsonLinesSink>(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--trace: %s\n", e.what());
      return 2;
    }
    campaign_config.trace = trace_sink.get();
  }

  campaign::ScenarioFactory factory(scenario);
  if (chaos) factory.enable_chaos();

  // Graceful drain (docs/SERVICE.md): SIGINT/SIGTERM stops the campaign at
  // run granularity — workers finish their current run and join, and the
  // report is either complete or not written at all, never truncated.
  service::DrainSignal drain;
  campaign_config.stop = drain.flag();

  campaign::CampaignResult result;
  try {
    result = campaign::run_campaign(factory, campaign_config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }
  if (result.interrupted) {
    std::fprintf(stderr,
                 "interrupted: drained after %zu/%zu runs; no report written\n",
                 result.completed_runs, campaign_config.runs);
    return 4;
  }

  std::printf("campaign seed     : %llu\n",
              static_cast<unsigned long long>(result.seed));
  std::printf("runs              : %zu on %zu worker(s)\n", result.runs,
              result.jobs_used);
  std::printf("wall time         : %.2f s (%.1f runs/s)\n", result.wall_seconds,
              result.wall_seconds > 0.0
                  ? static_cast<double>(result.runs) / result.wall_seconds
                  : 0.0);
  std::printf("%-28s %6s %12s %12s %12s %12s\n", "metric", "count", "mean",
              "ci95_lo", "ci95_hi", "p90");
  for (const auto& s : result.summaries) {
    if (s.count == 0) continue;
    std::printf("%-28s %6zu %12.4f %12.4f %12.4f %12.4f\n", s.metric.c_str(),
                s.count, s.mean, s.ci95_lo, s.ci95_hi, s.p90);
  }

  try {
    campaign::export_campaign(result, json_path, csv_prefix);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (!json_path.empty()) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!csv_prefix.empty()) {
    std::printf("wrote %s_runs.csv and %s_summary.csv\n", csv_prefix.c_str(),
                csv_prefix.c_str());
  }

  if (!metrics_path.empty()) {
    const std::string metrics = obs::render_prometheus(result.metrics);
    if (metrics_path == "-") {
      std::printf("\n# ---- metrics (Prometheus text format) ----\n%s",
                  metrics.c_str());
    } else {
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
        return 1;
      }
      std::fputs(metrics.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
  }
  if (trace_sink) {
    std::printf("wrote %zu trace events to %s\n",
                trace_sink->events_written(), trace_path.c_str());
  }

  std::size_t violations = 0;
  for (const auto& o : result.outcomes) violations += o.invariant_violations;
  if (violations > 0) {
    std::fprintf(stderr, "safety-invariant violations: %zu across %zu runs\n",
                 violations, result.runs);
    if (fail_on_violation) return 3;
  }
  return 0;
}
