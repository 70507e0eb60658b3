// The bundle instrumented components attach to: one metrics registry plus
// one tracer. Constructed by the entry point that wants telemetry
// (each campaign run, fleet_dashboard, a test) and handed down
// by pointer; components that never receive one skip all instrumentation.
//
//   obs::Observability o;
//   obs::JsonLinesSink sink("trace.jsonl");
//   o.tracer.set_sink(&sink);
//   runner.attach_observability(o);
//   ... run ...
//   std::fputs(o.metrics.render_prometheus().c_str(), stdout);
#pragma once

#include "sesame/obs/metrics.hpp"
#include "sesame/obs/trace.hpp"

namespace sesame::obs {

struct Observability {
  MetricsRegistry metrics;
  Tracer tracer;
};

}  // namespace sesame::obs
