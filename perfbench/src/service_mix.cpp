// service_mix: a closed loop of client threads driving the campaign service
// through its HTTP adapter. Each client POSTs its next submission, waits
// for the job, and GETs the report bytes before submitting again.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/obs/sinks.hpp"
#include "sesame/service/http.hpp"
#include "sesame/service/service.hpp"

namespace perfbench {

namespace {

namespace service = sesame::service;

service::ServiceLimits limits_for_budget() {
  // Executors plus client threads stay within the thread budget.
  const std::size_t budget = thread_budget();
  service::ServiceLimits limits;
  limits.executors = std::max<std::size_t>(1, budget / 2);
  limits.jobs_per_campaign = 1;
  return limits;
}

std::size_t clients_for_budget() {
  return std::max<std::size_t>(1, thread_budget() - limits_for_budget().executors);
}

/// Received report bytes, kept as length + FNV-1a 64 so the client's
/// memory does not grow with the number of reports it holds.
struct ReportDigest {
  std::size_t size = 0;
  std::uint64_t fnv = 0;
  bool operator==(const ReportDigest&) const = default;
};

ReportDigest digest_of(const std::string& bytes) {
  return {bytes.size(), service::fnv1a64(bytes)};
}

/// One client's record of its closed loop.
struct ClientLog {
  std::vector<double> report_ms;  ///< POST -> report bytes held
  std::vector<std::size_t> completed_items;  ///< mix indices
  std::vector<ReportDigest> reports;         ///< parallel to completed_items
  std::size_t submitted = 0;
  std::size_t repeats = 0;
  std::size_t rejected = 0;
  std::size_t runs_executed = 0;  ///< runs of jobs that missed the cache
  std::vector<std::string> errors;
};

/// Every client's record of one closed loop.
struct LoopResult {
  std::vector<ClientLog> logs;
  std::vector<std::vector<MixItem>> mixes;
  double window_s = 0.0;
  std::size_t cache_hits = 0;
};

/// Parses one request through the HTTP adapter, handles it and serializes
/// the response, as the daemon does before writing it to its socket.
service::HttpResponse http_call(service::CampaignService& svc,
                                const std::string& request) {
  service::HttpConnection conn;
  const auto parsed = conn.feed(request.data(), request.size());
  if (!parsed) return service::HttpResponse{400, "text/plain", "unparsed"};
  service::HttpResponse response = service::handle_request(svc, *parsed);
  service::serialize_response(response);
  return response;
}

std::string post_request(const service::Submission& s) {
  const std::string body = service::submission_to_json(s);
  return "POST /api/v1/campaigns HTTP/1.1\r\nHost: perfbench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::optional<std::uint64_t> job_id_of(const std::string& body) {
  const std::string key = "\"job\":";
  const std::size_t pos = body.find(key);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtoull(body.c_str() + pos + key.size(), nullptr, 10);
}

/// Runs client `log`'s closed loop over `mix`, submitting nothing after
/// `deadline`. With a tracer, the HTTP calls are wrapped in
/// `bench.service.post` / `bench.service.report` spans.
void client_loop(service::CampaignService& svc,
                 const std::vector<MixItem>& mix, Clock::time_point deadline,
                 ClientLog& log, sesame::obs::Tracer* tracer) {
  for (std::size_t i = 0; i < mix.size() && Clock::now() < deadline; ++i) {
    const MixItem& item = mix[i];
    const std::string request = post_request(item.submission);
    ++log.submitted;
    if (item.repeat) ++log.repeats;

    const auto t0 = Clock::now();
    service::HttpResponse posted;
    {
      sesame::obs::Span span;
      if (tracer) span = tracer->start_span("bench.service.post");
      posted = http_call(svc, request);
    }
    if (posted.status == 429 || posted.status == 503) {
      ++log.rejected;
      log.errors.push_back("submission rejected: " + posted.body);
      continue;
    }
    const auto id = job_id_of(posted.body);
    if (posted.status != 202 || !id) {
      log.errors.push_back("POST failed: " + posted.body);
      continue;
    }
    const service::JobStatus status = svc.wait(*id);
    if (status.state != service::JobState::kCompleted) {
      log.errors.push_back("job " + std::to_string(*id) + " ended " +
                           service::job_state_name(status.state));
      continue;
    }
    if (!status.cache_hit) log.runs_executed += status.runs_total;

    service::HttpResponse report;
    {
      sesame::obs::Span span;
      if (tracer) span = tracer->start_span("bench.service.report");
      report = http_call(
          svc,
          "GET /api/v1/jobs/" + std::to_string(*id) +
              "/report HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    }
    const auto t1 = Clock::now();
    if (report.status != 200) {
      log.errors.push_back("report GET failed: " + report.body);
      continue;
    }
    log.report_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    log.completed_items.push_back(i);
    log.reports.push_back(digest_of(report.body));
  }
}

/// Checks every completed report of `loops` against campaign_json of the
/// same submission, computed once at jobs=1 on up to thread_budget()
/// threads.
void verify_reports(const std::vector<const LoopResult*>& loops,
                    Outcome& out) {
  std::map<std::string, ReportDigest> reference;  // submission JSON -> report
  std::vector<const service::Submission*> distinct;
  for (const LoopResult* loop : loops) {
    for (std::size_t c = 0; c < loop->logs.size(); ++c) {
      for (std::size_t i : loop->logs[c].completed_items) {
        const auto& s = loop->mixes[c][i].submission;
        if (reference.emplace(service::submission_to_json(s), ReportDigest{})
                .second) {
          distinct.push_back(&s);
        }
      }
    }
  }
  std::vector<ReportDigest> bytes(distinct.size());
  std::vector<std::size_t> violations(distinct.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t k = next++; k < distinct.size(); k = next++) {
      service::ResolvedCampaign resolved = service::resolve(*distinct[k]);
      resolved.config.jobs = 1;
      const auto result =
          sesame::campaign::run_campaign(resolved.factory, resolved.config);
      for (const auto& o : result.outcomes) violations[k] += o.invariant_violations;
      bytes[k] = digest_of(sesame::campaign::campaign_json(result));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < thread_budget(); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    reference[service::submission_to_json(*distinct[k])] = bytes[k];
    if (violations[k] != 0) {
      out.fail("service campaign reports " + std::to_string(violations[k]) +
               " invariant violations");
    }
  }
  for (const LoopResult* loop : loops) {
    for (std::size_t c = 0; c < loop->logs.size(); ++c) {
      const ClientLog& log = loop->logs[c];
      for (std::size_t j = 0; j < log.completed_items.size(); ++j) {
        const auto& s = loop->mixes[c][log.completed_items[j]].submission;
        if (log.reports[j] != reference[service::submission_to_json(s)]) {
          out.fail("service report differs from campaign_json of submission " +
                   service::submission_to_json(s));
        }
      }
    }
  }
  out.notes.push_back("verified against " + std::to_string(distinct.size()) +
                      " jobs=1 references");
}

/// Median of the submit-to-first-result histogram from the service's
/// Prometheus text (buckets summed over tenants, linear within a bucket).
double first_result_ms_p50(const std::string& prometheus) {
  const std::string prefix =
      "sesame_service_submit_to_first_result_seconds_bucket{";
  std::map<double, double> cumulative;  // upper bound -> count
  std::istringstream lines(prometheus);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t le = line.find("le=\"");
    const std::size_t close = line.find('}');
    if (le == std::string::npos || close == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
    const double upper = bound == "+Inf" ? HUGE_VAL : std::strtod(bound.c_str(), nullptr);
    cumulative[upper] += std::strtod(line.c_str() + close + 1, nullptr);
  }
  if (cumulative.empty() || cumulative.rbegin()->second <= 0.0) return 0.0;
  const double target = 0.5 * cumulative.rbegin()->second;
  double lower = 0.0, below = 0.0;
  for (const auto& [upper, count] : cumulative) {
    if (count >= target) {
      if (upper == HUGE_VAL || count == below) return lower * 1e3;
      return (lower + (upper - lower) * (target - below) / (count - below)) * 1e3;
    }
    lower = upper;
    below = count;
  }
  return lower * 1e3;
}

/// Runs every client's closed loop against `svc` over the first `count`
/// submissions of its mix, submitting nothing after `seconds` when
/// `seconds` > 0. With tracers, client c records spans into tracers[c].
LoopResult closed_loop(service::CampaignService& svc, std::uint64_t seed,
                       std::size_t clients, std::size_t count, double seconds,
                       std::vector<sesame::obs::Tracer>* tracers) {
  LoopResult r;
  r.logs.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    r.mixes.push_back(generate_mix(seed, c, count));
  }
  const std::size_t hits0 = svc.cache_hits();
  const auto start = Clock::now();
  const auto deadline =
      seconds > 0.0 ? start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))
                    : Clock::time_point::max();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(svc, r.mixes[c], deadline, r.logs[c],
                  tracers ? &(*tracers)[c] : nullptr);
    });
  }
  for (auto& t : threads) t.join();
  r.window_s = seconds_since(start);
  r.cache_hits = svc.cache_hits() - hits0;
  return r;
}

/// Mix long enough that no client runs out within `seconds`. A block of
/// kMixBlock holds 8 cache misses of at least a few milliseconds each, so a
/// client gets through well under 400 submissions per second.
std::size_t timed_mix_length(double seconds) {
  return static_cast<std::size_t>(seconds * 400.0) + kMixBlock;
}

}  // namespace

Outcome run_service_timed(const Options& options) {
  Outcome out;
  const auto limits = limits_for_budget();
  out.executors = limits.executors;
  out.clients = clients_for_budget();
  out.jobs = limits.jobs_per_campaign;

  // Set-up, repeated: construct the service and complete one warm-up
  // campaign through the HTTP path. setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<service::CampaignService> svc;
  for (std::size_t rep = 0; rep < options.sizing.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    auto s = std::make_unique<service::CampaignService>(limits);
    service::Submission warm;
    warm.tenant = "warmup";
    warm.preset = "baseline";
    warm.runs = 1;
    warm.seed = mix64(options.seed) ^ (0xFFFFull << 48);
    const auto posted = http_call(*s, post_request(warm));
    const auto id = job_id_of(posted.body);
    if (!id || s->wait(*id).state != service::JobState::kCompleted) {
      out.fail("warm-up campaign did not complete: " + posted.body);
    }
    setups.push_back(seconds_since(t0));
    svc = std::move(s);
  }

  // Memory: a count-limited closed loop on a service of its own, before
  // the window. The service retains every job, so a peak read after the
  // window would grow with throughput; this one reads the same work
  // however fast the program runs.
  LoopResult sized;
  {
    service::CampaignService fixed(limits);
    sized = closed_loop(fixed, options.seed, out.clients,
                        options.sizing.rss_mix_submissions, 0.0, nullptr);
  }
  const double rss_mb = peak_rss_mb();

  const LoopResult loop =
      closed_loop(*svc, options.seed, out.clients,
                  timed_mix_length(options.seconds), options.seconds, nullptr);
  svc.reset();  // joins the executors before verification

  const std::vector<const LoopResult*> loops = {&sized, &loop};
  for (const LoopResult* l : loops) {
    for (const ClientLog& log : l->logs) {
      out.attempted += log.submitted + log.runs_executed;
      for (const auto& e : log.errors) out.fail(e);
    }
  }
  std::vector<double> report_ms;
  std::size_t completed = 0, submitted = 0, repeats = 0, runs = 0;
  for (std::size_t c = 0; c < loop.logs.size(); ++c) {
    const ClientLog& log = loop.logs[c];
    report_ms.insert(report_ms.end(), log.report_ms.begin(), log.report_ms.end());
    completed += log.report_ms.size();
    submitted += log.submitted;
    repeats += log.repeats;
    runs += log.runs_executed;
    if (log.submitted == loop.mixes[c].size()) {
      out.fail("a client exhausted its mix before the window closed");
    }
  }
  verify_reports(loops, out);

  out.add("setup_s", median(setups), "s");
  out.add("runs_per_s", static_cast<double>(runs) / loop.window_s, "1/s");
  out.add("campaigns_per_s", static_cast<double>(completed) / loop.window_s,
          "1/s");
  out.add("report_ms_p50", median(report_ms), "ms");
  out.add("peak_rss_mb", rss_mb, "MiB");

  out.notes.push_back("service: " + std::to_string(out.clients) +
                      " clients, " + std::to_string(out.executors) +
                      " executors, " + std::to_string(submitted) +
                      " submissions (" + std::to_string(repeats) +
                      " repeats, " + std::to_string(loop.cache_hits) +
                      " cache hits), " + std::to_string(runs) + " runs");
  out.notes.push_back("peak_rss_mb: after " +
                      std::to_string(options.sizing.rss_mix_submissions) +
                      " submissions per client, before the window");
  out.notes.push_back(tail_note("report_ms_p90", report_ms, 0.9, "ms"));
  out.notes.push_back(tail_note("report_ms_p99", report_ms, 0.99, "ms"));
  return out;
}

Outcome run_service_traced(const Options& options) {
  Outcome out;
  const auto limits = limits_for_budget();
  out.executors = limits.executors;
  out.clients = clients_for_budget();
  out.jobs = limits.jobs_per_campaign;
  const std::size_t count = options.sizing.traced_mix_submissions;

  // Service layer: two count-limited closed loops of the same seed. Their
  // cache-hit ratio and rejections must repeat exactly, and the ratio must
  // equal the repeat share the mix generator produced.
  ServiceLayer layer;
  double ratio[2] = {0.0, 0.0};
  double rejected[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<sesame::obs::MemorySink> sinks(out.clients);
    std::vector<sesame::obs::Tracer> tracers(out.clients);
    for (std::size_t c = 0; c < out.clients; ++c) tracers[c].set_sink(&sinks[c]);
    service::CampaignService svc(limits);
    const LoopResult loop =
        closed_loop(svc, options.seed, out.clients, count, 0.0, &tracers);
    std::size_t completed = 0, submitted = 0, repeats = 0;
    std::vector<double> http_us;
    for (std::size_t c = 0; c < out.clients; ++c) {
      const ClientLog& log = loop.logs[c];
      completed += log.completed_items.size();
      submitted += log.submitted;
      repeats += log.repeats;
      rejected[pass] += static_cast<double>(log.rejected);
      out.attempted += log.submitted;
      for (const auto& e : log.errors) out.fail(e);
      // Per campaign: the POST span plus the report span, in order.
      const auto posts = sinks[c].named("bench.service.post");
      const auto gets = sinks[c].named("bench.service.report");
      for (std::size_t k = 0; k < gets.size() && k < posts.size(); ++k) {
        http_us.push_back(posts[k].duration_us + gets[k].duration_us);
      }
    }
    ratio[pass] = completed == 0 ? 0.0
                                 : static_cast<double>(loop.cache_hits) /
                                       static_cast<double>(completed);
    const double repeat_share =
        static_cast<double>(repeats) / static_cast<double>(submitted);
    if (loop.cache_hits != repeats) {
      out.fail("cache hits (" + std::to_string(loop.cache_hits) +
               ") differ from generated repeats (" + std::to_string(repeats) +
               ")");
    }
    if (pass == 0) {
      layer.http_us = median(http_us);
      layer.first_result_ms_p50 = first_result_ms_p50(svc.metrics_prometheus());
      layer.cache_hit_ratio = ratio[0];
      layer.rejected = rejected[0];
      verify_reports({&loop}, out);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "service pass: %zu submissions, repeat share %.4f, "
                    "cache-hit ratio %.4f",
                    submitted, repeat_share, ratio[0]);
      out.notes.push_back(buf);
    }
  }
  if (ratio[0] != ratio[1] || rejected[0] != rejected[1]) {
    out.fail("service counts differ between two traced passes of one seed");
  }

  // Layer pass over the mix's first unique submissions (run 0 of each).
  const auto mix = generate_mix(options.seed, 0, 4 * kMixBlock);
  std::vector<sesame::campaign::ScenarioFactory> factories;
  std::vector<sesame::campaign::CampaignConfig> configs;
  factories.reserve(options.sizing.traced_mix_runs);
  for (const MixItem& item : mix) {
    if (item.repeat) continue;
    if (factories.size() == options.sizing.traced_mix_runs) break;
    service::ResolvedCampaign resolved = service::resolve(item.submission);
    factories.push_back(std::move(resolved.factory));
    configs.push_back(resolved.config);
  }
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < factories.size(); ++i) {
    specs.push_back({&factories[i], configs[i].seed, 0});
  }
  EddiProbe eddi(options.seed, options.sizing.probe_calls);
  const LayerPasses passes = layer_passes(specs, eddi);

  CampaignLayer campaign;
  for (std::size_t i = 0; i < factories.size(); ++i) {
    campaign_layer(factories[i], configs[i], 1, campaign, out);
  }
  const MonitorProbes probes = eddi.measure();
  const double publish_ns = publish_probe_ns(
      factories.front(), configs.front().seed, options.sizing.probe_calls * 10);

  add_layer_metrics(out, passes, probes, publish_ns, campaign, layer);
  return out;
}

}  // namespace perfbench
