// perfbench_sesame --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload and prints, in order: human-readable notes (sample
// counts, tails, self-check verdicts), a `host` JSON line, and as the last
// line the result object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set (tracing off); with
// --trace 1 they are the per-layer set from a separate traced run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_sesame --workload NAME --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty()) return usage();

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const auto& specs = options.trace ? perfbench::per_layer_specs()
                                    : perfbench::end_to_end_specs();
  std::string metrics;
  for (const auto& spec : specs) {
    const perfbench::Metric* found = nullptr;
    for (const auto& m : out.metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr || found->unit != spec.unit) {
      std::fprintf(stderr, "perfbench: metric %s missing or mis-united\n",
                   spec.name);
      return 1;
    }
    double value = found->value;
    if (!std::isfinite(value)) {
      out.fail(std::string("metric ") + spec.name + " is not finite");
      value = -1.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
    std::printf("%-28s %18.6f %s\n", spec.name, value, spec.unit);
  }
  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  std::printf("# failed_share=%.6f (%llu of %llu operations)\n",
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf(
      "{\"host\": {\"num_cpus\": %zu, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"jobs\": %zu, \"executors\": %zu, \"clients\": %zu}}\n",
      perfbench::num_cpus(), PERFBENCH_BUILD_TYPE, compiler().c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, out.jobs, out.executors,
      out.clients);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
