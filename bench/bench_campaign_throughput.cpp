// Campaign throughput: Monte Carlo runs/second vs. worker-pool size.
//
// The campaign layer is the batching surface every later performance PR is
// measured on; this bench records how scenario-run throughput scales with
// --jobs on the host. Each iteration executes a fixed small campaign (the
// baseline arm keeps per-run cost dominated by simulation, not monitor
// calibration) and reports runs/sec as a counter, so
//   bench_campaign_throughput --benchmark_counters_tabular=true
// prints a thread-scaling table directly, next to cpu_ms_per_run: the
// process CPU time (every pool thread, from getrusage) a campaign costs,
// per run, which leaves out time spent waiting for a core. On a shared
// host both figures still move with the host's effective CPU speed
// between processes (the committed baseline's note gives the spreads),
// so compare sides over several alternating processes. And
//   bench_campaign_throughput --json out.json
// writes the machine-readable report the committed
// BENCH_campaign_throughput.json baseline is regenerated from (see
// docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>

#include "bench_json.hpp"
#include "sesame/campaign/campaign.hpp"

namespace {

using namespace sesame;

/// User + system CPU time of the whole process (all threads), ms.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

platform::RunnerConfig small_scenario(bool sesame_on) {
  platform::RunnerConfig config = campaign::ScenarioFactory::default_scenario();
  config.n_uavs = 2;
  config.area = {0.0, 150.0, 0.0, 150.0};
  config.n_persons = 3;
  config.max_time_s = 200.0;
  config.sesame_enabled = sesame_on;
  return config;
}

void bench_campaign(benchmark::State& state, bool sesame_on) {
  const campaign::ScenarioFactory factory(small_scenario(sesame_on));
  campaign::CampaignConfig config;
  config.runs = 16;
  config.jobs = static_cast<std::size_t>(state.range(0));
  config.seed = 42;
  config.collect_metrics = true;

  std::size_t runs_done = 0;
  double cpu_ms = 0.0;
  for (auto _ : state) {
    const double cpu_before = process_cpu_ms();
    const auto result = campaign::run_campaign(factory, config);
    cpu_ms += process_cpu_ms() - cpu_before;
    benchmark::DoNotOptimize(result.summaries.data());
    runs_done += result.runs;
  }
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs_done), benchmark::Counter::kIsRate);
  state.counters["cpu_ms_per_run"] =
      cpu_ms / static_cast<double>(std::max<std::size_t>(runs_done, 1));
  state.counters["jobs"] = static_cast<double>(config.jobs);
}

void BM_CampaignBaseline(benchmark::State& state) {
  bench_campaign(state, /*sesame_on=*/false);
}

void BM_CampaignSesame(benchmark::State& state) {
  bench_campaign(state, /*sesame_on=*/true);
}

}  // namespace

// Real time: the campaign runs on worker threads, so the main thread's CPU
// time is no measure of a campaign's duration (runs_per_s is a rate over
// the timer the benchmark uses). Wall-clock rates on a shared host swing
// from run to run, so each row repeats and reports its mean, median,
// stddev and cv; compare medians.
BENCHMARK(BM_CampaignBaseline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()
    ->Repetitions(5)->ReportAggregatesOnly(true);
BENCHMARK(BM_CampaignSesame)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime()
    ->Repetitions(5)->ReportAggregatesOnly(true);

int main(int argc, char** argv) {
  return sesame::bench::run_main(argc, argv);
}
