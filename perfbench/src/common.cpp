#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "sesame/mathx/rng.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"runs_per_s", "1/s"},
      {"campaigns_per_s", "1/s"},
      {"report_ms_p50", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"sim.steps", "count"},
      {"sim.step_share", "ratio"},
      {"mw.publish", "count"},
      {"mw.deliver", "count"},
      {"mw.publish_ns", "ns"},
      {"platform.make_runner_ms", "ms"},
      {"platform.run_ms", "ms"},
      {"platform.ticks", "count"},
      {"platform.other_share", "ratio"},
      {"eddi.tick_us", "us"},
      {"eddi.share", "ratio"},
      {"safeml.assess_us", "us"},
      {"deepknowledge.assess_us", "us"},
      {"safedrones.evaluate_us", "us"},
      {"sinadra.assess_us", "us"},
      {"conserts.evals", "count"},
      {"conserts.eval_share", "ratio"},
      {"security.ids_alerts", "count"},
      {"campaign.aggregate_ms", "ms"},
      {"campaign.report_ms", "ms"},
      {"service.http_us", "us"},
      {"service.first_result_ms_p50", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.rejected", "count"},
      {"obs.trace_overhead_share", "ratio"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"spoofing_sesame",
                                                  "service_mix"};
  return names;
}

Sizing Sizing::smoke() {
  Sizing s;
  s.spoofing_runs = 4;
  s.setup_reps = 1;
  s.traced_campaign_runs = 2;
  s.traced_mix_runs = 2;
  s.traced_mix_submissions = 6;
  s.rss_mix_submissions = 6;
  s.probe_calls = 50;
  return s;
}

std::size_t num_cpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t thread_budget() { return std::min<std::size_t>(num_cpus(), 4); }

void Outcome::fail(const std::string& why) {
  ++failed;
  correct = false;
  notes.push_back("FAILED: " + why);
}

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back({name, value, unit});
}

Outcome run_workload(const Options& options) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.workload == "service_mix") {
    return options.trace ? run_service_traced(options)
                         : run_service_timed(options);
  }
  return options.trace ? run_campaign_traced(options)
                       : run_campaign_timed(options);
}

CampaignSpec campaign_spec(const Options& options) {
  CampaignSpec spec;
  spec.campaign_seed = mix64(options.seed);
  if (options.workload == "spoofing_sesame") {
    spec.preset = "spoofing";
    spec.runs = options.sizing.spoofing_runs;
  } else {
    throw std::invalid_argument("not a campaign workload: " + options.workload);
  }
  return spec;
}

std::vector<MixItem> generate_mix(std::uint64_t seed, std::size_t client,
                                  std::size_t count) {
  static const std::array<const char*, 4> kPresets = {
      "nominal", "battery_fault", "spoofing", "baseline"};
  static const std::array<const char*, 3> kTenants = {"alpha", "bravo",
                                                      "charlie"};
  static const std::array<std::size_t, 2> kRuns = {1, 2};
  static_assert(kPresets.size() * kRuns.size() + kMixRepeatsPerBlock ==
                kMixBlock);

  sesame::mathx::Rng rng(mix64(seed ^ mix64(client + 1)));
  // Campaign seeds: a per-seed base XOR a (client, index) tag, distinct for
  // every submission of one workload seed, so only repeats share a digest.
  const std::uint64_t seed_base = mix64(seed) & ((std::uint64_t{1} << 40) - 1);
  std::vector<MixItem> mix;
  mix.reserve(count);
  std::size_t last_unique = 0;
  for (std::size_t block = 0; mix.size() < count; ++block) {
    // Slots 0..7: preset x runs; slots 8..9: repeats.
    std::array<std::size_t, kMixBlock> slots{};
    for (std::size_t i = 0; i < kMixBlock; ++i) slots[i] = i;
    for (std::size_t i = kMixBlock - 1; i > 0; --i) {
      std::swap(slots[i], slots[rng.uniform_index(i + 1)]);
    }
    if (block == 0 && slots[0] >= kPresets.size() * kRuns.size()) {
      // A client's very first submission has nothing to repeat.
      const auto first_unique = std::find_if(
          slots.begin(), slots.end(),
          [](std::size_t s) { return s < kPresets.size() * kRuns.size(); });
      std::iter_swap(slots.begin(), first_unique);
    }
    for (std::size_t slot : slots) {
      if (mix.size() == count) break;
      if (slot >= kPresets.size() * kRuns.size()) {
        MixItem item = mix[last_unique];
        item.repeat = true;
        mix.push_back(std::move(item));
        continue;
      }
      MixItem item;
      item.submission.tenant = kTenants[rng.uniform_index(kTenants.size())];
      item.submission.preset = kPresets[slot / kRuns.size()];
      item.submission.runs = kRuns[slot % kRuns.size()];
      item.submission.seed =
          seed_base ^ (static_cast<std::uint64_t>(client + 1) << 40) ^
          static_cast<std::uint64_t>(mix.size());
      last_unique = mix.size();
      mix.push_back(std::move(item));
    }
  }
  return mix;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t samples_beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

std::string tail_note(const std::string& name, const std::vector<double>& v,
                      double q, const std::string& unit) {
  const std::size_t beyond = samples_beyond(v, q);
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s=%.4f %s (n=%zu, %zu beyond)%s",
                name.c_str(), quantile(v, q), unit.c_str(), v.size(), beyond,
                beyond >= 10 ? "" : " [unsupported: <10 samples beyond]");
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
