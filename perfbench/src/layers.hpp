// Traced-run machinery shared by the workloads: the layer pass (sequential
// runs wrapped in the benchmark's own spans, reading the program's existing
// instrumentation), the per-call monitor probes, and the assembly of the
// per-layer metric set with its attribution self-check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "sesame/campaign/campaign.hpp"
#include "sesame/eddi/uav_eddi.hpp"
#include "sesame/platform/mission_runner.hpp"

namespace perfbench {

/// One mission run of a layer pass: run `run_index` of the campaign seeded
/// `campaign_seed` over `factory`.
struct RunSpec {
  const sesame::campaign::ScenarioFactory* factory = nullptr;
  std::uint64_t campaign_seed = 0;
  std::uint64_t run_index = 0;
};

/// Mean wall time per call of the EDDI monitors' public entry points.
struct MonitorProbes {
  double safeml_us = 0.0;         ///< Monitor::push + assess
  double deepknowledge_us = 0.0;  ///< Analyzer::assess, EDDI window length
  double safedrones_us = 0.0;     ///< evaluate_prospective
  double sinadra_us = 0.0;        ///< SarRiskModel::assess
};

/// Inputs like those MissionRunner gives a UAV at mission altitude, and
/// the EDDI monitors at the calibrated configuration of the spoofing
/// preset's EDDI.
class EddiProbe {
 public:
  /// `calls` sizes the per-monitor probe batches of measure().
  EddiProbe(std::uint64_t seed, std::size_t calls);
  ~EddiProbe();
  EddiProbe(const EddiProbe&) = delete;
  EddiProbe& operator=(const EddiProbe&) = delete;

  /// Seconds to replay one run's EDDI layer: each of `eddis` (copies of
  /// the run's EDDIs, taken before it ran) ticks once per record of its
  /// UAV in `result.series`, with camera features exactly on the ticks
  /// MissionRunner fed them.
  double replay_s(std::vector<sesame::eddi::UavEddi>& eddis,
                  const sesame::platform::RunnerResult& result);
  /// Per-call cost of each sub-monitor (median of 5 batches).
  MonitorProbes measure();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Totals of one sequential pass over a list of runs.
struct LayerPass {
  std::size_t runs = 0;
  double wall_s = 0.0;      ///< sum over runs of make_runner + attach + run
  double run_wall_s = 0.0;  ///< sum of `bench.platform.run` spans
  std::vector<double> make_runner_ms;
  std::vector<double> run_ms;
  double step_s = 0.0;          ///< sesame.sim.step_duration_seconds sum
  double consert_eval_s = 0.0;  ///< sesame.mission.consert_eval spans
  /// UavEddi::tick time, from a replay of each run's EDDI ticks.
  double eddi_s = 0.0;
  std::vector<double> eddi_tick_us;  ///< per run: eddi time / EDDI ticks
  // Counts (must repeat exactly across passes over the same runs).
  double sim_steps = 0.0;
  double ticks = 0.0;
  double publish = 0.0;
  double deliver = 0.0;
  double ids_alerts = 0.0;
  double consert_evals = 0.0;
  std::size_t invariant_violations = 0;
};

/// Two traced passes and one untraced pass over the same runs.
struct LayerPasses {
  LayerPass a;
  LayerPass b;
  LayerPass plain;
};

/// Runs every spec three times back to back on this thread, so the three
/// passes see the same host conditions: twice traced (an in-memory trace
/// sink and the benchmark's spans around make_runner and run) and once
/// untraced (metrics attached, no trace sink: the way campaign workers
/// run). Each traced SESAME run is followed by an `eddi` replay that feeds
/// LayerPass::eddi_s.
LayerPasses layer_passes(const std::vector<RunSpec>& specs, EddiProbe& eddi);

/// Mean ns per Bus::publish of a telemetry message on a freshly built
/// runner of `factory` (that scenario's subscriber fan-out).
double publish_probe_ns(const sesame::campaign::ScenarioFactory& factory,
                        std::uint64_t campaign_seed, std::size_t calls);

/// Campaign-layer timings from whole run_campaign calls.
struct CampaignLayer {
  std::vector<double> aggregate_ms;  ///< last on_run_complete -> return
  std::vector<double> report_ms;     ///< campaign_json
};
/// Runs the campaign `reps` times, recording the campaign-layer timings
/// (spans `bench.campaign.run_campaign` / `bench.campaign.report`). Fails
/// `out` on invariant violations or reports that differ between reps.
void campaign_layer(const sesame::campaign::ScenarioFactory& factory,
                    const sesame::campaign::CampaignConfig& config,
                    std::size_t reps, CampaignLayer& layer, Outcome& out);

/// Service-layer numbers (all zero on workloads that bypass the service).
struct ServiceLayer {
  double http_us = 0.0;
  double first_result_ms_p50 = 0.0;
  double cache_hit_ratio = 0.0;
  double rejected = 0.0;
};

/// Appends every per-layer metric to `out` from the layer passes and the
/// probes, and runs the attribution self-check (no share outside [0, 1];
/// counts repeat exactly across the passes).
void add_layer_metrics(Outcome& out, const LayerPasses& passes,
                       const MonitorProbes& probes,
                       double publish_ns, const CampaignLayer& campaign,
                       const ServiceLayer& service);

}  // namespace perfbench
