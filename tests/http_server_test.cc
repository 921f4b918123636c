// Observability server: request-parser edge cases (partial reads, limit
// violations), routing via Dispatch, real-socket round trips, and the
// end-to-end live-scrape scenario — a multi-superstep PageRank polled over
// HTTP while it runs (/metrics parses and changes between supersteps,
// /jobs/<id> superstep counters are monotonic, /events replays in seq
// order).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "pregel/runtime.h"
#include "server/http.h"
#include "server/job_registry.h"
#include "server/server.h"

namespace pregelix {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// Parser unit tests (no sockets)

HttpRequest Parse(const std::string& data,
                  ParseOutcome expected = ParseOutcome::kOk,
                  ParseLimits limits = {}) {
  HttpRequest req;
  EXPECT_EQ(ParseHttpRequest(data, limits, &req), expected) << data;
  return req;
}

TEST(HttpParserTest, ParsesRequestLineAndHeaders) {
  const HttpRequest req = Parse(
      "GET /jobs/pr-1?since=5 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/jobs/pr-1?since=5");
  EXPECT_EQ(req.path, "/jobs/pr-1");
  EXPECT_EQ(req.query, "since=5");
  ASSERT_EQ(req.headers.size(), 2u);
  EXPECT_EQ(req.headers[0].first, "Host");
  EXPECT_EQ(req.headers[0].second, "x");
}

TEST(HttpParserTest, PartialReadsNeedMoreByteByByte) {
  const std::string full = "GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n";
  HttpRequest req;
  const ParseLimits limits;
  for (size_t n = 0; n < full.size(); ++n) {
    EXPECT_EQ(ParseHttpRequest(full.substr(0, n), limits, &req),
              ParseOutcome::kNeedMore)
        << "prefix length " << n;
  }
  EXPECT_EQ(ParseHttpRequest(full, limits, &req), ParseOutcome::kOk);
  EXPECT_EQ(req.path, "/metrics");
}

TEST(HttpParserTest, MalformedRequests) {
  HttpRequest req;
  const ParseLimits limits;
  // No spaces in the request line.
  EXPECT_EQ(ParseHttpRequest("GETmetrics\r\n\r\n", limits, &req),
            ParseOutcome::kBadRequest);
  // Missing HTTP version.
  EXPECT_EQ(ParseHttpRequest("GET /metrics\r\n\r\n", limits, &req),
            ParseOutcome::kBadRequest);
  // Header without a colon.
  EXPECT_EQ(
      ParseHttpRequest("GET / HTTP/1.1\r\nbogusheader\r\n\r\n", limits, &req),
      ParseOutcome::kBadRequest);
}

TEST(HttpParserTest, OversizedUriRejectedCompleteAndStreaming) {
  ParseLimits limits;
  limits.max_uri_bytes = 16;
  HttpRequest req;
  const std::string long_target(40, 'a');
  // Complete head, target too long -> 414.
  EXPECT_EQ(ParseHttpRequest("GET /" + long_target + " HTTP/1.1\r\n\r\n",
                             limits, &req),
            ParseOutcome::kUriTooLong);
  // Endless unterminated request line -> rejected while streaming, before
  // any terminator arrives.
  EXPECT_EQ(ParseHttpRequest("GET /" + std::string(200, 'a'), limits, &req),
            ParseOutcome::kUriTooLong);
}

TEST(HttpParserTest, OversizedHeadersRejectedCompleteAndStreaming) {
  ParseLimits limits;
  limits.max_header_bytes = 64;
  HttpRequest req;
  const std::string big(100, 'x');
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.1\r\nH: " + big + "\r\n\r\n",
                             limits, &req),
            ParseOutcome::kHeaderTooLarge);
  // Streaming: terminated first line, endless header bytes.
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.1\r\nH: " + big, limits, &req),
            ParseOutcome::kHeaderTooLarge);
}

TEST(HttpParserTest, QueryParamExtraction) {
  EXPECT_EQ(QueryParam("since=17&limit=5", "since"), "17");
  EXPECT_EQ(QueryParam("since=17&limit=5", "limit"), "5");
  EXPECT_EQ(QueryParam("since=17", "absent"), "");
  EXPECT_EQ(QueryParam("", "since"), "");
}

// ---------------------------------------------------------------------------
// Routing via Dispatch (no sockets)

struct DispatchEnv {
  MetricsRegistry metrics;
  JobStatusRegistry jobs;
  EventJournal journal{64};
  ObservabilityServer srv{ServerOptions{}, &metrics, &jobs, &journal};

  HttpResponse Get(const std::string& target, const std::string& method = "GET") {
    HttpRequest req;
    req.method = method;
    req.target = target;
    const size_t q = target.find('?');
    req.path = q == std::string::npos ? target : target.substr(0, q);
    if (q != std::string::npos) req.query = target.substr(q + 1);
    return srv.Dispatch(req);
  }
};

TEST(DispatchTest, HealthReadyAndIndex) {
  DispatchEnv env;
  EXPECT_EQ(env.Get("/healthz").code, 200);
  EXPECT_EQ(env.Get("/readyz").code, 503);  // not ready until SetReady
  env.srv.SetReady(true);
  EXPECT_EQ(env.Get("/readyz").code, 200);
  const HttpResponse index = env.Get("/");
  EXPECT_EQ(index.code, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_NE(index.body.find("/jobs/<id>"), std::string::npos);
}

TEST(DispatchTest, UnknownPathIs404AndNonGetIs405) {
  DispatchEnv env;
  EXPECT_EQ(env.Get("/nonesuch").code, 404);
  const HttpResponse post = env.Get("/metrics", "POST");
  EXPECT_EQ(post.code, 405);
  bool has_allow = false;
  for (const auto& [k, v] : post.headers) {
    if (k == "Allow" && v == "GET") has_allow = true;
  }
  EXPECT_TRUE(has_allow);
}

TEST(DispatchTest, MetricsServesPrometheusAndCountsRequests) {
  DispatchEnv env;
  env.metrics.GetCounter("pregelix.test.counter")->Add(7);
  const HttpResponse resp = env.Get("/metrics");
  EXPECT_EQ(resp.code, 200);
  EXPECT_NE(resp.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.body.find("pregelix_test_counter 7"), std::string::npos);
  // The server's own request counter carries endpoint + code labels.
  EXPECT_EQ(env.metrics.CounterValue(
                "pregelix.server.requests",
                {{"endpoint", "/metrics"}, {"code", "200"}}),
            1u);
}

TEST(DispatchTest, JobEndpointsServeRegistryState) {
  DispatchEnv env;
  env.jobs.OnJobStart("pr-1", "pagerank");
  SuperstepBrief brief;
  brief.superstep = 3;
  brief.live_vertices = 100;
  brief.messages = 250;
  env.jobs.OnSuperstep("pr-1", brief, "{\"ops\":[]}");

  const HttpResponse list = env.Get("/jobs");
  EXPECT_EQ(list.code, 200);
  EXPECT_NE(list.body.find("\"job\":\"pr-1\""), std::string::npos);

  const HttpResponse one = env.Get("/jobs/pr-1");
  EXPECT_EQ(one.code, 200);
  EXPECT_NE(one.body.find("\"superstep\":3"), std::string::npos);
  EXPECT_NE(one.body.find("\"profile\":{\"ops\":[]}"), std::string::npos);
  EXPECT_NE(one.body.find("\"recent_supersteps\":[{"), std::string::npos);

  EXPECT_EQ(env.Get("/jobs/unknown").code, 404);
}

TEST(DispatchTest, EventsReplayWithSinceFilter) {
  DispatchEnv env;
  env.journal.Append("a", "j", 1);
  env.journal.Append("b", "j", 2);
  const HttpResponse all = env.Get("/events?since=0");
  EXPECT_EQ(all.code, 200);
  EXPECT_NE(all.body.find("\"category\":\"a\""), std::string::npos);
  const HttpResponse tail = env.Get("/events?since=1");
  EXPECT_EQ(tail.body.find("\"category\":\"a\""), std::string::npos);
  EXPECT_NE(tail.body.find("\"category\":\"b\""), std::string::npos);
  EXPECT_EQ(env.Get("/events?since=bogus").code, 400);
}

// ---------------------------------------------------------------------------
// Real sockets

/// Opens a client connection to 127.0.0.1:port.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Sends raw bytes, reads the full response until the server closes.
std::string RoundTrip(int port, const std::string& request) {
  const int fd = Connect(port);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& target) {
  return RoundTrip(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int StatusCodeOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12) return -1;
  return std::atoi(response.substr(9, 3).c_str());
}

std::string BodyOf(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

struct SocketEnv {
  MetricsRegistry metrics;
  JobStatusRegistry jobs;
  EventJournal journal{64};
  std::unique_ptr<ObservabilityServer> srv;

  SocketEnv() {
    ServerOptions opts;
    opts.port = 0;  // ephemeral
    srv = std::make_unique<ObservabilityServer>(opts, &metrics, &jobs,
                                                &journal);
    Status s = srv->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(srv->port(), 0);
  }
  ~SocketEnv() { srv->Stop(); }
};

TEST(HttpServerSocketTest, ServesOverTcpIncludingSplitRequests) {
  SocketEnv env;
  const std::string whole = HttpGet(env.srv->port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(whole), 200);
  EXPECT_EQ(BodyOf(whole), "ok\n");
  EXPECT_NE(whole.find("Content-Length: 3"), std::string::npos);

  // Same request delivered one byte at a time still parses.
  const int fd = Connect(env.srv->port());
  const std::string req = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  for (char c : req) {
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
  }
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(StatusCodeOf(response), 200);
}

TEST(HttpServerSocketTest, LimitAndMethodViolationsOverTcp) {
  SocketEnv env;
  const int port = env.srv->port();
  // Default limits: 2048-byte URI, 8192-byte head.
  EXPECT_EQ(StatusCodeOf(HttpGet(port, "/" + std::string(4000, 'a'))), 414);
  EXPECT_EQ(StatusCodeOf(RoundTrip(
                port, "GET / HTTP/1.1\r\nBig: " + std::string(9000, 'x') +
                          "\r\n\r\n")),
            431);
  EXPECT_EQ(StatusCodeOf(RoundTrip(
                port, "DELETE /metrics HTTP/1.1\r\nHost: t\r\n\r\n")),
            405);
  EXPECT_EQ(StatusCodeOf(RoundTrip(port, "garbage\r\n\r\n")), 400);
  EXPECT_EQ(StatusCodeOf(HttpGet(port, "/nonesuch")), 404);
}

// ---------------------------------------------------------------------------
// End-to-end: scrape a live PageRank

/// True when every non-empty line is a comment or `name{...} value` /
/// `name value` sample — the shape promtool accepts.
bool LooksLikePrometheus(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) return false;
    const char first = line[0];
    if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) {
      return false;
    }
    any = true;
  }
  return any;
}

/// Extracts the integer value of `"key":` in a flat JSON object.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Extracts the string value of `"key":"..."` (no escaped quotes in it);
/// empty when absent.
std::string JsonString(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  return json.substr(start, json.find('"', start) - start);
}

TEST(HttpServerE2eTest, LiveScrapeDuringPageRank) {
  TempDir dir("server-e2e");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  ClusterConfig config;
  config.num_workers = 2;
  config.partitions_per_worker = 2;
  config.worker_ram_bytes = 8u << 20;
  config.frame_size = 8 * 1024;
  config.temp_root = dir.Sub("cluster");
  MetricsRegistry metrics;
  config.metrics_registry = &metrics;
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);
  GraphStats stats;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs, "input/g", 3, 800, 6.0, 42, &stats).ok());

  // The runtime publishes into the process-global job registry + journal;
  // serve exactly those, plus the cluster's registry.
  ServerOptions opts;
  opts.port = 0;
  ObservabilityServer srv(opts, &metrics, &JobStatusRegistry::Global(),
                          &EventJournal::Global());
  ASSERT_TRUE(srv.Start().ok());
  srv.SetPreScrapeHook([&cluster]() { cluster.PublishMetrics(); });
  srv.SetReady(true);
  const int port = srv.port();
  const uint64_t journal_start = EventJournal::Global().last_seq();

  PageRankProgram program(25);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "e2e-pagerank";
  job.job_id = "e2e-pagerank";
  job.input_dir = "input/g";

  std::atomic<bool> done{false};
  Status job_status;
  JobResult result;
  std::thread driver([&]() {
    job_status = runtime.Run(&adapter, job, &result);
    done.store(true);
  });

  // Poll while the job runs: every /metrics body must be valid exposition,
  // and the /jobs/<id> superstep counter must move forward.
  std::vector<std::string> scrapes;
  std::vector<int64_t> superstep_samples;
  while (!done.load()) {
    const std::string metrics_resp = HttpGet(port, "/metrics");
    EXPECT_EQ(StatusCodeOf(metrics_resp), 200);
    const std::string body = BodyOf(metrics_resp);
    EXPECT_TRUE(LooksLikePrometheus(body)) << body.substr(0, 400);
    scrapes.push_back(body);

    const std::string job_resp = HttpGet(port, "/jobs/e2e-pagerank");
    if (StatusCodeOf(job_resp) == 200) {
      superstep_samples.push_back(JsonInt(BodyOf(job_resp), "superstep"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  driver.join();
  ASSERT_TRUE(job_status.ok()) << job_status.ToString();
  ASSERT_GE(result.supersteps, 25);

  // The exposition changed across supersteps (live counters moved).
  const std::set<std::string> distinct(scrapes.begin(), scrapes.end());
  EXPECT_GE(scrapes.size(), 2u);
  EXPECT_GE(distinct.size(), 2u);

  // Superstep counters observed over HTTP are monotonically non-decreasing
  // and actually advanced while we watched.
  ASSERT_GE(superstep_samples.size(), 2u);
  for (size_t i = 1; i < superstep_samples.size(); ++i) {
    EXPECT_GE(superstep_samples[i], superstep_samples[i - 1]);
  }
  const std::set<int64_t> distinct_steps(superstep_samples.begin(),
                                         superstep_samples.end());
  EXPECT_GE(distinct_steps.size(), 2u);

  // After the job: the final status is visible, with the plan profile.
  const std::string final_resp = BodyOf(HttpGet(port, "/jobs/e2e-pagerank"));
  EXPECT_NE(final_resp.find("\"state\":\"finished\""), std::string::npos);
  EXPECT_EQ(JsonInt(final_resp, "superstep"), result.supersteps);
  EXPECT_NE(final_resp.find("\"profile\":{"), std::string::npos);

  // /events replays in seq order and pairs every superstep begin/end.
  const std::string events =
      BodyOf(HttpGet(port, "/events?since=" +
                               std::to_string(journal_start)));
  std::istringstream in(events);
  std::string line;
  uint64_t prev_seq = 0;
  int begins = 0, ends = 0;
  bool saw_start = false, saw_finish = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const int64_t seq = JsonInt(line, "seq");
    ASSERT_GT(seq, 0);
    EXPECT_GT(static_cast<uint64_t>(seq), prev_seq);
    prev_seq = static_cast<uint64_t>(seq);
    if (line.find("\"job\":\"e2e-pagerank\"") == std::string::npos) continue;
    if (line.find("\"category\":\"superstep.begin\"") != std::string::npos) {
      ++begins;
    }
    if (line.find("\"category\":\"superstep.end\"") != std::string::npos) {
      ++ends;
      // A superstep's ledger split is this job's own thread time: the
      // server's parked (idle) and request (serve) threads stay out of it.
      const std::string ledger = JsonString(line, "ledger_ns");
      EXPECT_FALSE(ledger.empty()) << line;
      EXPECT_EQ(ledger.find("idle="), std::string::npos) << line;
      EXPECT_EQ(ledger.find("serve="), std::string::npos) << line;
    }
    if (line.find("\"category\":\"job.start\"") != std::string::npos) {
      saw_start = true;
    }
    if (line.find("\"category\":\"job.finish\"") != std::string::npos) {
      saw_finish = true;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(ends, static_cast<int>(result.supersteps));

  srv.Stop();
}

}  // namespace
}  // namespace server
}  // namespace pregelix
