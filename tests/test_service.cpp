// Tests for the campaign service: submission parsing and cache digests,
// the service core (byte-identity vs the campaign layer, result cache,
// admission control, graceful drain), the HTTP adapter, the framed wire
// transport, and the shared SIGINT/SIGTERM drain latch.
//
// The headline contract is byte-identity (docs/SERVICE.md): a report
// fetched from the service — over any transport, at any executor count,
// under multi-tenant concurrency — is exactly campaign_json() of the same
// (scenario, runs, seed), i.e. the bytes campaign_cli --json writes.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/eddi/ode.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/platform/config_io.hpp"
#include "sesame/platform/design_assets.hpp"
#include "sesame/service/drain.hpp"
#include "sesame/service/http.hpp"
#include "sesame/service/service.hpp"
#include "sesame/service/submission.hpp"
#include "sesame/service/wire.hpp"

namespace campaign = sesame::campaign;
namespace platform = sesame::platform;
namespace service = sesame::service;
namespace ode = sesame::eddi::ode;

namespace {

/// A scenario small enough to run many campaigns in the test suite.
std::string tiny_config_json(std::size_t n_uavs, std::size_t n_persons) {
  platform::RunnerConfig config =
      campaign::ScenarioFactory::default_scenario();
  config.n_uavs = n_uavs;
  config.area = {0.0, 150.0, 0.0, 150.0};
  config.n_persons = n_persons;
  config.max_time_s = 150.0;
  config.sesame_enabled = false;
  return platform::config_to_json(config).to_json();
}

service::Submission tiny_submission(const std::string& tenant,
                                    std::uint64_t seed, std::size_t runs = 3,
                                    std::size_t n_uavs = 2) {
  service::Submission s;
  s.tenant = tenant;
  s.config_json = tiny_config_json(n_uavs, 3);
  s.runs = runs;
  s.seed = seed;
  return s;
}

/// The reference bytes: what campaign_cli --json would write for the same
/// submission (resolved identically, run in-process).
std::string expected_report_bytes(const service::Submission& s) {
  service::ResolvedCampaign resolved = service::resolve(s);
  resolved.config.jobs = 2;  // any worker count: determinism contract
  return campaign::campaign_json(
      campaign::run_campaign(resolved.factory, resolved.config));
}

/// Moves bytes between a wire client and a server session until neither
/// side has anything left to say.
void pump(service::WireSession& server, service::WireClient& client) {
  for (int i = 0; i < 64; ++i) {
    bool moved = false;
    if (client.has_outbound()) {
      server.feed(client.take_outbound());
      moved = true;
    }
    if (server.has_outbound()) {
      client.feed(server.take_outbound());
      moved = true;
    }
    if (!moved) return;
  }
  FAIL() << "wire pump did not quiesce";
}

}  // namespace

TEST(Submission, CanonicalJsonRoundTrips) {
  service::Submission s = tiny_submission("alpha", 42);
  s.chaos = false;
  const std::string canonical = service::submission_to_json(s);
  const service::Submission back = service::submission_from_json(canonical);
  EXPECT_EQ(service::submission_to_json(back), canonical);
  EXPECT_EQ(service::resolve(back).digest, service::resolve(s).digest);
}

TEST(Submission, RejectsMalformedDocuments) {
  EXPECT_THROW(service::submission_from_json("not json"), std::runtime_error);
  EXPECT_THROW(service::submission_from_json("[1,2]"), std::runtime_error);
  // A typo must not silently become a default.
  EXPECT_THROW(service::submission_from_json(R"({"rnus": 4})"),
               std::runtime_error);
  EXPECT_THROW(service::submission_from_json(R"({"runs": 0})"),
               std::invalid_argument);
  // Bad presets are rejected at submit time, not minutes later on an
  // executor.
  EXPECT_ANY_THROW(
      service::submission_from_json(R"({"preset": "no_such_preset"})"));
}

TEST(Submission, DigestIgnoresFormattingButNotSemantics) {
  const std::string config = tiny_config_json(2, 3);
  const auto digest_of = [&](const std::string& text) {
    return service::resolve(service::submission_from_json(text)).digest;
  };
  // Key order and whitespace cannot split the cache...
  const std::string a =
      R"({"runs": 4, "seed": "7", "config": )" + config + "}";
  const std::string b =
      R"({  "config": )" + config + R"(, "seed": 7, "runs": 4})";
  EXPECT_EQ(digest_of(a), digest_of(b));
  // ...but every identity-bearing field does.
  const std::string other_seed =
      R"({"runs": 4, "seed": "8", "config": )" + config + "}";
  const std::string other_runs =
      R"({"runs": 5, "seed": "7", "config": )" + config + "}";
  EXPECT_NE(digest_of(a), digest_of(other_seed));
  EXPECT_NE(digest_of(a), digest_of(other_runs));
}

TEST(Service, ConcurrentTenantsGetCampaignCliBytes) {
  // Three tenants, three distinct campaigns, all in flight at once; each
  // report must be byte-identical to the same campaign run via the
  // campaign layer directly (what campaign_cli --json writes).
  const std::vector<service::Submission> submissions = {
      tiny_submission("alpha", 7, 3, 2),
      tiny_submission("bravo", 11, 4, 2),
      tiny_submission("carol", 13, 3, 3),
  };

  service::ServiceLimits limits;
  limits.executors = 3;
  service::CampaignService svc(limits);
  std::vector<std::uint64_t> jobs;
  for (const auto& s : submissions) {
    const auto outcome = svc.submit(s);
    ASSERT_TRUE(outcome.accepted) << outcome.reject_reason;
    jobs.push_back(outcome.job_id);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto status = svc.wait(jobs[i]);
    ASSERT_EQ(status.state, service::JobState::kCompleted) << status.error;
    EXPECT_EQ(status.runs_completed, submissions[i].runs);
    EXPECT_EQ(svc.report(jobs[i]), expected_report_bytes(submissions[i]))
        << "tenant " << submissions[i].tenant;
  }
}

// A hostile client cycles through distinct SESAME designs across two
// executors, so the one-slot design library is replaced on almost every
// lookup. No report byte or non-wall-clock metric shows whether a campaign
// found its design held or built it.
TEST(Service, DesignLibraryThrashLeavesReportsAndMetricsAlone) {
  constexpr std::size_t kDesigns = 6;
  std::vector<service::Submission> submissions;
  for (std::size_t k = 0; k < kDesigns; ++k) {
    platform::RunnerConfig config =
        campaign::ScenarioFactory::default_scenario();
    config.n_uavs = 2;
    config.area = {0.0, 150.0, 0.0, 150.0};
    config.n_persons = 3;
    config.max_time_s = 150.0;
    config.sesame_enabled = true;
    config.descend_altitude_m = 12.25 + 0.5 * static_cast<double>(k);
    service::Submission s;
    s.tenant = k % 2 == 0 ? "alpha" : "bravo";
    s.config_json = platform::config_to_json(config).to_json();
    s.runs = 1;
    s.seed = 100 + k;
    submissions.push_back(std::move(s));
  }

  const std::uint64_t builds_before = platform::design_library().builds();
  service::ServiceLimits limits;
  limits.executors = 2;
  service::CampaignService svc(limits);
  std::vector<std::uint64_t> jobs;
  for (const auto& s : submissions) {
    const auto outcome = svc.submit(s);
    ASSERT_TRUE(outcome.accepted) << outcome.reject_reason;
    jobs.push_back(outcome.job_id);
  }
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const auto status = svc.wait(jobs[k]);
    ASSERT_EQ(status.state, service::JobState::kCompleted) << status.error;
  }
  EXPECT_GE(platform::design_library().builds() - builds_before, kDesigns);

  for (std::size_t k = 0; k < jobs.size(); ++k) {
    service::ResolvedCampaign resolved = service::resolve(submissions[k]);
    resolved.config.jobs = 1;
    EXPECT_EQ(svc.report(jobs[k]),
              campaign::campaign_json(
                  campaign::run_campaign(resolved.factory, resolved.config)))
        << "design " << k;
  }
  std::istringstream prom(svc.metrics_prometheus());
  for (std::string line; std::getline(prom, line);) {
    if (line.find("design") != std::string::npos) {
      EXPECT_NE(line.find("_seconds"), std::string::npos) << line;
    }
  }
}

TEST(Service, CacheHitReturnsIdenticalBytesWithoutRerunning) {
  service::CampaignService svc;
  const service::Submission s = tiny_submission("alpha", 21);
  const auto first = svc.submit(s);
  ASSERT_TRUE(first.accepted);
  ASSERT_EQ(svc.wait(first.job_id).state, service::JobState::kCompleted);

  // Different tenant, differently formatted document, same resolved
  // campaign: completes synchronously from the cache.
  service::Submission again = s;
  again.tenant = "bravo";
  const auto second = svc.submit(again);
  ASSERT_TRUE(second.accepted);
  const auto status = svc.status(second.job_id);
  EXPECT_EQ(status.state, service::JobState::kCompleted);
  EXPECT_TRUE(status.cache_hit);
  EXPECT_EQ(svc.cache_hits(), 1u);
  EXPECT_EQ(svc.report(second.job_id), svc.report(first.job_id));

  // The event log records the cache hit instead of fabricating runs.
  bool saw_cache_hit = false;
  for (const auto& line : svc.events(second.job_id, 0)) {
    if (ode::parse_json(line).at("event").as_string() == "cache_hit") {
      saw_cache_hit = true;
    }
  }
  EXPECT_TRUE(saw_cache_hit);
}

TEST(Service, AdmissionRejectsOverCapsAndWhileDraining) {
  service::ServiceLimits limits;
  limits.max_runs_per_campaign = 4;
  service::CampaignService svc(limits);

  const auto too_big = svc.submit(tiny_submission("alpha", 3, /*runs=*/5));
  EXPECT_FALSE(too_big.accepted);
  EXPECT_EQ(too_big.reject_reason, "runs_cap");

  svc.drain();
  const auto while_drained = svc.submit(tiny_submission("alpha", 3));
  EXPECT_FALSE(while_drained.accepted);
  EXPECT_EQ(while_drained.reject_reason, "draining");
}

TEST(Service, DrainHandsBackEveryUnfinishedSubmission) {
  service::ServiceLimits limits;
  limits.executors = 1;
  service::CampaignService svc(limits);

  // One long campaign occupies the only executor; two more queue behind.
  std::vector<std::uint64_t> jobs;
  jobs.push_back(svc.submit(tiny_submission("alpha", 5, /*runs=*/400)).job_id);
  jobs.push_back(svc.submit(tiny_submission("alpha", 6)).job_id);
  jobs.push_back(svc.submit(tiny_submission("bravo", 7)).job_id);

  const auto spooled = svc.drain();

  // No orphans: every job either completed or came back for spooling, and
  // nothing is left queued or running.
  std::size_t completed = 0;
  for (const auto id : jobs) {
    const auto status = svc.status(id);
    ASSERT_TRUE(status.state == service::JobState::kCompleted ||
                status.state == service::JobState::kDrained)
        << job_state_name(status.state);
    if (status.state == service::JobState::kCompleted) ++completed;
  }
  EXPECT_EQ(spooled.size(), jobs.size() - completed);
  EXPECT_GE(spooled.size(), 2u);  // at most the running job finished

  // Spooled submissions survive the round trip to the spool directory.
  for (const auto& s : spooled) {
    const auto back =
        service::submission_from_json(service::submission_to_json(s));
    EXPECT_EQ(service::resolve(back).digest, service::resolve(s).digest);
  }
  // A second drain is a no-op.
  EXPECT_TRUE(svc.drain().empty());
}

TEST(Service, EventLogIsCursorPollable) {
  service::CampaignService svc;
  const auto outcome = svc.submit(tiny_submission("alpha", 31));
  ASSERT_TRUE(outcome.accepted);
  ASSERT_EQ(svc.wait(outcome.job_id).state, service::JobState::kCompleted);

  const auto all = svc.events(outcome.job_id, 0);
  ASSERT_GE(all.size(), 3u);  // queued, started, runs..., completed
  EXPECT_EQ(ode::parse_json(all.front()).at("event").as_string(), "queued");
  EXPECT_EQ(ode::parse_json(all.back()).at("event").as_string(), "completed");
  for (const auto& line : all) {
    EXPECT_NO_THROW(ode::parse_json(line)) << line;
  }
  // Cursor semantics: a caller that consumed N lines sees only the tail.
  EXPECT_EQ(svc.events(outcome.job_id, all.size()).size(), 0u);
  EXPECT_EQ(svc.events(outcome.job_id, all.size() - 1).size(), 1u);

  // Service-side metrics stay on their own surface, never in reports.
  const std::string prom = svc.metrics_prometheus();
  EXPECT_NE(prom.find("sesame_service_submissions_total"), std::string::npos);
  EXPECT_EQ(svc.report(outcome.job_id).find("sesame.service."),
            std::string::npos);
}

TEST(Http, IncrementalParserReassemblesSplitRequests) {
  const std::string raw =
      "POST /api/v1/campaigns?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"runs\": 4}";
  service::HttpConnection conn;
  // Feed one byte at a time: the request must assemble exactly once.
  std::optional<service::HttpRequest> req;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto got = conn.feed(raw.data() + i, 1);
    if (got) {
      EXPECT_EQ(i, raw.size() - 1);
      req = std::move(got);
    }
  }
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/api/v1/campaigns");
  EXPECT_EQ(req->query, "x=1");
  EXPECT_EQ(req->headers.at("content-length"), "11");
  EXPECT_EQ(req->body, "{\"runs\": 4}");

  service::HttpConnection bad;
  bad.feed("garbage\r\n\r\n", 11);
  EXPECT_TRUE(bad.failed());
  EXPECT_EQ(bad.error().status, 400);
}

// A bad or oversized Content-Length is answered from the head alone: the
// parser never waits for (or buffers) body bytes it will refuse.
TEST(Http, BadOrOversizedContentLengthFailsAtTheHead) {
  const auto head = [](const std::string& length) {
    return "POST /api/v1/campaigns HTTP/1.1\r\nContent-Length: " + length +
           "\r\n\r\n";
  };
  const struct {
    const char* length;
    int status;
  } cases[] = {{"-1", 400},
               {"12abc", 400},
               {"", 400},
               {"99999999999999999999", 400},  // 20 digits: past uint64
               {"1048577", 413}};              // 1 MiB + 1
  for (const auto& c : cases) {
    service::HttpConnection conn;
    const std::string raw = head(c.length);
    EXPECT_FALSE(conn.feed(raw.data(), raw.size()).has_value()) << c.length;
    ASSERT_TRUE(conn.failed()) << c.length;
    EXPECT_EQ(conn.error().status, c.status) << c.length;
    const std::string wire = service::serialize_response(conn.error());
    EXPECT_EQ(wire.rfind("HTTP/1.1 " + std::to_string(c.status), 0), 0u);
  }

  // A head that never ends is cut off at its own cap.
  service::HttpConnection endless;
  const std::string junk(service::HttpConnection::kMaxHeadBytes + 1, 'h');
  endless.feed(junk.data(), junk.size());
  ASSERT_TRUE(endless.failed());
  EXPECT_EQ(endless.error().status, 431);

  // Exactly at the cap is a legal body: the parser waits for it.
  service::HttpConnection at_cap;
  const std::string raw = head("1048576");
  EXPECT_FALSE(at_cap.feed(raw.data(), raw.size()).has_value());
  EXPECT_FALSE(at_cap.failed());
  const std::string body(service::HttpConnection::kMaxBodyBytes, 'x');
  const auto req = at_cap.feed(body.data(), body.size());
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body.size(), service::HttpConnection::kMaxBodyBytes);
}

// --- HttpConnection fuzz ---------------------------------------------------
//
// Seeded inputs, the way test_wire fuzzes the wire decoder: random bytes and
// valid requests with mutated Content-Length, head size and CR/LF
// placement, each fed at random split points. Every input ends as a
// request, a pending parse or failed() with 400/413/431; the buffer never
// exceeds one head plus one body; and the outcome is the same however the
// bytes were split — so a valid request split anywhere parses to the same
// HttpRequest. The ASan/UBSan CI jobs run this with memory checking.

namespace {

using Http = service::HttpConnection;

const std::string kFuzzBody = "{\"runs\": 4}";

std::string fuzz_request(const std::string& content_length,
                         const std::string& extra_header,
                         const std::string& body) {
  return "POST /api/v1/campaigns?x=1 HTTP/1.1\r\nHost: localhost\r\n" +
         extra_header + "Content-Length: " + content_length + "\r\n\r\n" +
         body;
}

/// The final state of a connection fed `input` in the pieces `cuts`
/// delimits: the first request returned, or the error status, or neither.
struct FeedOutcome {
  std::optional<service::HttpRequest> request;
  int status = 0;  ///< error status when failed(), else 0
  std::size_t max_buffered = 0;
};

FeedOutcome feed_split(const std::string& input, std::vector<std::size_t> cuts) {
  cuts.push_back(input.size());
  std::sort(cuts.begin(), cuts.end());
  Http conn;
  FeedOutcome out;
  std::size_t from = 0;
  for (const std::size_t to : cuts) {
    auto got = conn.feed(input.data() + from, to - from);
    if (got && !out.request) out.request = std::move(got);
    out.max_buffered = std::max(out.max_buffered, conn.buffered());
    from = to;
  }
  if (conn.failed()) out.status = conn.error().status;
  return out;
}

bool same_request(const service::HttpRequest& a, const service::HttpRequest& b) {
  return a.method == b.method && a.path == b.path && a.query == b.query &&
         a.headers == b.headers && a.body == b.body;
}

/// One fuzz input; `large` allows heads and bodies near the caps.
std::string fuzz_input(sesame::mathx::Rng& rng, bool large) {
  const auto random_bytes = [&](std::size_t n) {
    // Biased towards the bytes the parser looks for.
    const char special[] = {'\r', '\n', ':', ' ', '?', '0', '9'};
    std::string out(n, '\0');
    for (auto& c : out) {
      c = rng.bernoulli(0.3)
              ? special[rng.uniform_index(sizeof(special))]
              : static_cast<char>(rng.uniform_index(256));
    }
    return out;
  };
  switch (large ? rng.uniform_index(2) : 2 + rng.uniform_index(2)) {
    case 0: {  // head size: one padding header around the head cap
      const std::size_t base = fuzz_request("11", "X-Pad: \r\n", "").size();
      const std::size_t target =
          Http::kMaxHeadBytes - 2 + rng.uniform_index(5);  // cap-2 .. cap+2
      const std::size_t pad = target > base ? target - base : 0;
      return fuzz_request("11", "X-Pad: " + std::string(pad, 'p') + "\r\n",
                          kFuzzBody);
    }
    case 1: {  // body at, under or over the body cap, plus trailing bytes
      // (sometimes more than a whole head: one request never needs them)
      const std::size_t length =
          Http::kMaxBodyBytes - 1 + rng.uniform_index(3);
      const std::size_t trailing = rng.uniform_index(8) +
                                   (rng.bernoulli(0.5) ? Http::kMaxHeadBytes : 0);
      return fuzz_request(std::to_string(length), "",
                          std::string(length + trailing, 'b'));
    }
    case 2: {  // Content-Length mutations
      const std::string lengths[] = {"-1",  "abc", "",   "0",
                                     "11",  "12",  "5",  " 11",
                                     "11 ", "+11", "1048577",
                                     "99999999999999999999",
                                     std::to_string(rng.uniform_index(40))};
      std::string body = kFuzzBody;
      body.resize(rng.uniform_index(24), '}');
      return fuzz_request(lengths[rng.uniform_index(std::size(lengths))], "",
                          body);
    }
    default: {
      if (rng.bernoulli(0.3)) return random_bytes(rng.uniform_index(300));
      // CR/LF placement: insert, delete or overwrite CR/LF bytes.
      std::string in = fuzz_request("11", "", kFuzzBody);
      for (std::uint64_t k = 1 + rng.uniform_index(3); k > 0; --k) {
        const std::size_t at = rng.uniform_index(in.size());
        const char crlf = rng.bernoulli(0.5) ? '\r' : '\n';
        switch (rng.uniform_index(3)) {
          case 0: in.insert(in.begin() + static_cast<std::ptrdiff_t>(at), crlf); break;
          case 1: in.erase(at, 1); break;
          default: in[at] = crlf; break;
        }
      }
      return in;
    }
  }
}

}  // namespace

TEST(Http, FuzzedFeedsEndInAnAllowedStateWhateverTheSplit) {
  sesame::mathx::Rng rng(0x48545450);
  std::size_t requests = 0, failures = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const bool large = iter % 50 == 0;
    const std::string input = fuzz_input(rng, large);
    const FeedOutcome whole = feed_split(input, {});
    ASSERT_TRUE(whole.status == 0 || whole.status == 400 ||
                whole.status == 413 || whole.status == 431)
        << "iter " << iter << " status " << whole.status;
    ASSERT_FALSE(whole.request && whole.status != 0) << "iter " << iter;
    if (whole.request) ++requests;
    if (whole.status != 0) ++failures;
    for (int split = 0; split < (large ? 2 : 6); ++split) {
      std::vector<std::size_t> cuts(rng.uniform_index(large ? 4 : 9));
      for (auto& c : cuts) {
        // Large inputs: half the cuts land within a few bytes of the head
        // cap, where an incomplete head is decided.
        c = large && rng.bernoulli(0.5)
                ? Http::kMaxHeadBytes - 4 + rng.uniform_index(9)
                : rng.uniform_index(input.size() + 1);
        c = std::min(c, input.size());
      }
      const FeedOutcome part = feed_split(input, cuts);
      ASSERT_LE(part.max_buffered, Http::kMaxHeadBytes + Http::kMaxBodyBytes);
      ASSERT_EQ(part.status, whole.status) << "iter " << iter;
      ASSERT_EQ(part.request.has_value(), whole.request.has_value())
          << "iter " << iter;
      if (whole.request) {
        ASSERT_TRUE(same_request(*part.request, *whole.request))
            << "iter " << iter;
      }
    }
  }
  // The generator reaches every outcome, not just one.
  EXPECT_GT(requests, 100u);
  EXPECT_GT(failures, 100u);
}

TEST(Http, HeadCapCountsTheTerminatorWhateverTheSplit) {
  // A head of exactly kMaxHeadBytes (terminator included) parses; one byte
  // more is 431, whether it arrives whole or byte by byte at the edge.
  const std::string base = fuzz_request("11", "X-Pad: \r\n", "");
  for (const std::size_t head : {Http::kMaxHeadBytes, Http::kMaxHeadBytes + 1}) {
    const std::string raw =
        fuzz_request("11", "X-Pad: " + std::string(head - base.size(), 'p') +
                               "\r\n", kFuzzBody);
    ASSERT_EQ(raw.size() - kFuzzBody.size(), head);
    const bool fits = head <= Http::kMaxHeadBytes;
    std::vector<std::size_t> edge;
    for (std::size_t i = head - 6; i <= head; ++i) edge.push_back(i);
    for (const auto& cuts : {std::vector<std::size_t>{}, edge}) {
      const FeedOutcome out = feed_split(raw, cuts);
      EXPECT_EQ(out.request.has_value(), fits) << head;
      EXPECT_EQ(out.status, fits ? 0 : 431) << head;
    }
  }
  // Bytes past one head plus one body are dropped, not buffered.
  Http conn;
  const std::string raw = fuzz_request("11", "", kFuzzBody);
  ASSERT_TRUE(conn.feed(raw.data(), raw.size()).has_value());
  const std::string flood(Http::kMaxHeadBytes + Http::kMaxBodyBytes, 'z');
  conn.feed(flood.data(), flood.size());
  EXPECT_EQ(conn.buffered(), Http::kMaxHeadBytes + Http::kMaxBodyBytes);
}

TEST(Http, RoutesTheFullJobLifecycle) {
  service::CampaignService svc;
  const service::Submission s = tiny_submission("alpha", 77);

  const auto respond = [&](const std::string& method, const std::string& path,
                           const std::string& body = "",
                           const std::string& query = "") {
    service::HttpRequest req;
    req.method = method;
    req.path = path;
    req.query = query;
    req.body = body;
    return service::handle_request(svc, req);
  };

  // Submit.
  const auto accepted =
      respond("POST", "/api/v1/campaigns", service::submission_to_json(s));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const auto job = static_cast<std::uint64_t>(
      ode::parse_json(accepted.body).at("job").as_number());
  const std::string base = "/api/v1/jobs/" + std::to_string(job);

  // Malformed and misrouted requests map to protocol errors.
  EXPECT_EQ(respond("POST", "/api/v1/campaigns", "{oops").status, 400);
  EXPECT_EQ(respond("GET", "/api/v1/campaigns").status, 405);
  EXPECT_EQ(respond("GET", "/api/v1/jobs/999999").status, 404);
  EXPECT_EQ(respond("GET", "/nope").status, 404);
  EXPECT_EQ(respond("GET", base + "/nope").status, 404);

  ASSERT_EQ(svc.wait(job).state, service::JobState::kCompleted);

  const auto status = respond("GET", base);
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(ode::parse_json(status.body).at("state").as_string(),
            "completed");

  const auto events = respond("GET", base + "/events", "", "cursor=0");
  EXPECT_EQ(events.status, 200);
  EXPECT_GE(ode::parse_json(events.body).at("events").as_array().size(), 3u);

  // The report route returns the byte-identity surface verbatim.
  const auto report = respond("GET", base + "/report");
  EXPECT_EQ(report.status, 200);
  EXPECT_EQ(report.body, svc.report(job));
  EXPECT_EQ(report.body, expected_report_bytes(s));

  const auto health = respond("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  const auto metrics = respond("GET", "/metrics");
  EXPECT_NE(metrics.body.find("sesame_service_jobs_completed_total"),
            std::string::npos);

  svc.drain();
  EXPECT_EQ(
      respond("POST", "/api/v1/campaigns", service::submission_to_json(s))
          .status,
      503);
}

TEST(Wire, LoopbackSessionDeliversByteIdenticalReport) {
  service::CampaignService svc;
  sesame::mw::Bus alert_bus;
  service::WireSession server(svc, alert_bus, "test_link");
  service::WireClient client;
  server.start();
  client.start();

  const service::Submission s = tiny_submission("alpha", 55);
  client.submit(s);
  pump(server, client);

  ASSERT_TRUE(client.established());
  ASSERT_TRUE(client.has_response());
  const auto accepted = ode::parse_json(client.pop_response());
  ASSERT_EQ(accepted.at("type").as_string(), "accepted") << accepted.to_json();
  const auto job =
      static_cast<std::uint64_t>(accepted.at("job").as_number());

  ASSERT_EQ(svc.wait(job).state, service::JobState::kCompleted);

  client.poll_events(job, 0);
  pump(server, client);

  // The poll of a completed job streams the events, announces the report,
  // and ships the raw bytes as one frame.
  ASSERT_TRUE(client.has_response());
  const auto events = ode::parse_json(client.pop_response());
  EXPECT_EQ(events.at("type").as_string(), "events");
  EXPECT_GE(events.at("events").as_array().size(), 3u);
  ASSERT_TRUE(client.report_received());
  EXPECT_EQ(client.report(), expected_report_bytes(s));

  // A clean session raises no wire-security alerts.
  server.poll_security(1.0);
  EXPECT_EQ(server.counters().crc_errors, 0u);
  EXPECT_EQ(server.counters().replays_rejected, 0u);
}

TEST(Wire, BadRequestsGetStructuredErrors) {
  service::CampaignService svc;
  sesame::mw::Bus alert_bus;
  service::WireSession server(svc, alert_bus, "test_link");
  service::WireClient client;
  server.start();
  client.start();

  client.request_status(404);  // no such job
  pump(server, client);
  ASSERT_TRUE(client.has_response());
  const auto reply = ode::parse_json(client.pop_response());
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("error").as_string().find("no such job"),
            std::string::npos);
}

TEST(Drain, SignalLatchTripsOnceAndIsExclusive) {
  service::DrainSignal drain;
  EXPECT_FALSE(drain.requested());
  EXPECT_FALSE(drain.flag()->load());

  // Only one latch may own the process-wide handlers at a time.
  EXPECT_THROW(service::DrainSignal(), std::logic_error);

  std::raise(SIGTERM);  // the installed handler only flips the latch
  EXPECT_TRUE(drain.requested());
  EXPECT_TRUE(drain.flag()->load());

  drain.reset();
  EXPECT_FALSE(drain.requested());
}
