#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/fault_injection.h"
#include "common/json.h"
#include "common/time_ledger.h"

namespace pregelix {
namespace server {

namespace {

// The served endpoint table. tools/lint.py cross-checks these literals
// against the endpoint table in DESIGN.md §15 — keep both in sync.
constexpr const char* kEndpoints[] = {
    "/",           // endpoint index (this table, as text)
    "/metrics",    // Prometheus 0.0.4 exposition of the live registry
    "/healthz",    // liveness: 200 while the server thread runs
    "/readyz",     // readiness: 200 after SetReady(true), else 503
    "/statusz",    // build info, uptime, job/journal summary (JSON)
    "/jobs",       // all tracked jobs, summary per job (JSON)
    "/jobs/<id>",  // one job: counters, recent supersteps, plan profile
    "/events",     // journal replay: ?since=<seq>, JSONL in seq order
    "/profilez",   // time ledger: JSON, or ?format=collapsed flame stacks
};

uint64_t NowSteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Maps a request path onto the bounded endpoint-label vocabulary so the
/// pregelix.server.requests label set cannot grow with attacker-chosen
/// paths.
std::string NormalizeEndpoint(const std::string& path) {
  for (const char* e : kEndpoints) {
    if (path == e) return e;
  }
  if (path.rfind("/jobs/", 0) == 0) return "/jobs/<id>";
  return "other";
}

HttpResponse TextResponse(int code, std::string body) {
  HttpResponse resp;
  resp.code = code;
  resp.body = std::move(body);
  return resp;
}

HttpResponse JsonResponse(int code, std::string body) {
  HttpResponse resp;
  resp.code = code;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

}  // namespace

ObservabilityServer::ObservabilityServer(ServerOptions options,
                                         MetricsRegistry* metrics,
                                         JobStatusRegistry* jobs,
                                         EventJournal* journal)
    : options_(std::move(options)),
      metrics_(metrics != nullptr ? metrics : &MetricsRegistry::Global()),
      jobs_(jobs != nullptr ? jobs : &JobStatusRegistry::Global()),
      journal_(journal != nullptr ? journal : &EventJournal::Global()) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  active_connections_ =
      metrics_->GetGauge("pregelix.server.active_connections");
  errors_accept_ = metrics_->GetCounter("pregelix.server.errors",
                                        {{"kind", "accept"}});
  errors_read_ =
      metrics_->GetCounter("pregelix.server.errors", {{"kind", "read"}});
  errors_write_ =
      metrics_->GetCounter("pregelix.server.errors", {{"kind", "write"}});
  errors_overflow_ = metrics_->GetCounter("pregelix.server.errors",
                                          {{"kind", "overflow"}});
}

ObservabilityServer::~ObservabilityServer() { Stop(); }

Status ObservabilityServer::Start() {
  if (running()) return Status::OK();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    bound_port_ = ntohs(addr.sin_port);
  }

  listen_fd_.store(fd, std::memory_order_release);
  started_steady_ns_ = NowSteadyNanos();
  {
    MutexLock lock(&mutex_);
    shutting_down_ = false;
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void ObservabilityServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock the accept loop, then the workers.
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
    queue_cv_.NotifyAll();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Anything still queued gets closed unanswered.
  MutexLock lock(&mutex_);
  while (!queue_.empty()) {
    ::close(queue_.front());
    queue_.pop_front();
  }
}

void ObservabilityServer::SetPreScrapeHook(std::function<void()> hook) {
  MutexLock lock(&mutex_);
  pre_scrape_hook_ = std::move(hook);
}

double ObservabilityServer::UptimeSeconds() const {
  if (started_steady_ns_ == 0) return 0.0;
  return static_cast<double>(NowSteadyNanos() - started_steady_ns_) / 1e9;
}

void ObservabilityServer::AcceptLoop() {
  while (running()) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running()) break;
      if (errno == EINTR) continue;
      errors_accept_->Increment();
      if (errno == EBADF || errno == EINVAL) break;  // listener closed
      continue;
    }
    if (!fault::MaybeFail("server.accept").ok()) {
      // Injected accept failure: drop the connection before handling.
      errors_accept_->Increment();
      ::close(fd);
      continue;
    }
    bool overloaded = false;
    {
      MutexLock lock(&mutex_);
      if (queue_.size() >= options_.queue_capacity) {
        overloaded = true;
      } else {
        queue_.push_back(fd);
        queue_cv_.NotifyOne();
      }
    }
    if (overloaded) {
      // Canned 503 straight from the accept thread; never block on a
      // slow client here.
      errors_overflow_->Increment();
      CountRequest("other", 503);
      const std::string wire =
          SerializeResponse(TextResponse(503, "overloaded\n"));
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
    }
  }
}

void ObservabilityServer::WorkerLoop() {
  // Base category idle: a parked HTTP worker is idle, not serving; only the
  // per-connection kServe scope below counts as request handling.
  const bool attached = TimeLedger::AttachCurrentThread(
      TimeLedger::kServerWorker, TimeCategory::kIdle, "http.worker");
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(&mutex_);
      while (queue_.empty() && !shutting_down_) {
        queue_cv_.Wait(&mutex_);
      }
      if (queue_.empty() && shutting_down_) {
        if (attached) TimeLedger::DetachCurrentThread();
        return;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    ScopedTimeCategory serve(TimeCategory::kServe);
    ServeConnection(fd);
  }
}

void ObservabilityServer::ServeConnection(int fd) {
  active_connections_->Add(1);

  timeval timeout;
  timeout.tv_sec = options_.io_timeout_seconds;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  // Read until a full request head is parsed or a limit trips. The parser
  // re-runs over everything received so far; requests are small, so the
  // rescan is cheap and keeps partial-read handling trivially correct.
  std::string buffer;
  HttpRequest req;
  ParseOutcome outcome = ParseOutcome::kNeedMore;
  char chunk[4096];
  while (outcome == ParseOutcome::kNeedMore) {
    if (!fault::MaybeFail("server.read").ok()) {
      errors_read_->Increment();
      ::close(fd);
      active_connections_->Add(-1);
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      errors_read_->Increment();
      ::close(fd);
      active_connections_->Add(-1);
      return;
    }
    if (n == 0) {
      // Peer closed without a full request head; nothing to answer.
      ::close(fd);
      active_connections_->Add(-1);
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    outcome = ParseHttpRequest(buffer, options_.limits, &req);
  }

  HttpResponse resp;
  std::string endpoint = "other";
  switch (outcome) {
    case ParseOutcome::kOk:
      endpoint = NormalizeEndpoint(req.path);
      resp = Dispatch(req);
      break;
    case ParseOutcome::kUriTooLong:
      resp = TextResponse(414, "request-target too long\n");
      CountRequest(endpoint, resp.code);
      break;
    case ParseOutcome::kHeaderTooLarge:
      resp = TextResponse(431, "request head too large\n");
      CountRequest(endpoint, resp.code);
      break;
    default:
      resp = TextResponse(400, "malformed request\n");
      CountRequest(endpoint, resp.code);
      break;
  }

  std::string wire = SerializeResponse(resp);
  size_t to_write = wire.size();
  const Status write_fault = fault::MaybeFailWrite("server.write", &to_write);
  if (!write_fault.ok()) {
    errors_write_->Increment();
    // Torn write: emit the surviving prefix, then drop the connection.
  }
  size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::send(fd, wire.data() + written, to_write - written, MSG_NOSIGNAL);
    if (n <= 0) {
      errors_write_->Increment();
      break;
    }
    written += static_cast<size_t>(n);
  }
  if (written > 0) {
    metrics_
        ->GetCounter("pregelix.server.bytes_written", {{"endpoint", endpoint}})
        ->Add(written);
  }
  ::close(fd);
  active_connections_->Add(-1);
}

void ObservabilityServer::CountRequest(const std::string& endpoint,
                                       int code) {
  metrics_
      ->GetCounter("pregelix.server.requests",
                   {{"endpoint", endpoint}, {"code", std::to_string(code)}})
      ->Increment();
}

HttpResponse ObservabilityServer::Dispatch(const HttpRequest& req) {
  const std::string endpoint = NormalizeEndpoint(req.path);
  HttpResponse resp;
  if (req.method != "GET" && req.method != "HEAD") {
    resp = TextResponse(405, "only GET is supported\n");
    resp.headers.emplace_back("Allow", "GET");
  } else if (req.path == "/") {
    std::string body = "pregelix observability server\nendpoints:\n";
    for (const char* e : kEndpoints) {
      body += "  ";
      body += e;
      body += "\n";
    }
    resp = TextResponse(200, std::move(body));
  } else if (req.path == "/healthz") {
    resp = TextResponse(200, "ok\n");
  } else if (req.path == "/readyz") {
    resp = ready_.load(std::memory_order_acquire)
               ? TextResponse(200, "ready\n")
               : TextResponse(503, "not ready\n");
  } else if (req.path == "/metrics") {
    resp = HandleMetrics();
  } else if (req.path == "/profilez") {
    resp = HandleProfilez(req.query);
  } else if (req.path == "/statusz") {
    resp = HandleStatusz();
  } else if (req.path == "/jobs") {
    resp = HandleJobs();
  } else if (req.path.rfind("/jobs/", 0) == 0) {
    resp = HandleJob(req.path.substr(6));
  } else if (req.path == "/events") {
    resp = HandleEvents(req.query);
  } else {
    resp = TextResponse(404, "unknown path " + req.path + "\n");
  }
  if (req.method == "HEAD") resp.body.clear();
  CountRequest(endpoint, resp.code);
  return resp;
}

HttpResponse ObservabilityServer::HandleMetrics() {
  std::function<void()> hook;
  {
    MutexLock lock(&mutex_);
    hook = pre_scrape_hook_;
  }
  if (hook) hook();
  // Refresh the ledger gauges before the registry writes, then append the
  // ledger's own exposition (pregelix_time_seconds_total & friends) so one
  // scrape carries both (DESIGN.md §20).
  TimeLedger::Global().PublishMetrics(metrics_);
  std::ostringstream os;
  metrics_->WritePrometheus(os);
  TimeLedger::Global().WritePrometheus(os);
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = os.str();
  return resp;
}

HttpResponse ObservabilityServer::HandleProfilez(const std::string& query) {
  const std::string format = QueryParam(query, "format");
  std::ostringstream os;
  if (format == "collapsed") {
    // flamegraph.pl's collapsed-stack input: `worker;operator;category ns`.
    TimeLedger::Global().WriteCollapsed(os);
    return TextResponse(200, os.str());
  }
  if (!format.empty() && format != "json") {
    return TextResponse(400, "bad format= value (json|collapsed)\n");
  }
  TimeLedger::Global().WriteJson(os);
  return JsonResponse(200, os.str());
}

HttpResponse ObservabilityServer::HandleStatusz() {
  std::ostringstream os;
  os << "{\"build\":\"";
  AppendJsonEscaped(os, options_.build_info);
  os << "\",\"pid\":" << ::getpid()
     << ",\"uptime_seconds\":" << UptimeSeconds() << ",\"ready\":"
     << (ready_.load(std::memory_order_acquire) ? "true" : "false")
     << ",\"jobs\":{\"tracked\":" << jobs_->size()
     << ",\"running\":" << jobs_->running_jobs() << "}"
     << ",\"journal\":{\"last_seq\":" << journal_->last_seq()
     << ",\"dropped\":" << journal_->dropped()
     << ",\"capacity\":" << journal_->capacity() << "}}";
  return JsonResponse(200, os.str());
}

HttpResponse ObservabilityServer::HandleJobs() {
  std::ostringstream os;
  jobs_->WriteJobsJson(os);
  return JsonResponse(200, os.str());
}

HttpResponse ObservabilityServer::HandleJob(const std::string& job_id) {
  std::ostringstream os;
  if (job_id.empty() || !jobs_->WriteJobJson(job_id, os)) {
    std::ostringstream err;
    err << "{\"error\":\"unknown job\",\"job\":\"";
    AppendJsonEscaped(err, job_id);
    err << "\"}";
    return JsonResponse(404, err.str());
  }
  return JsonResponse(200, os.str());
}

HttpResponse ObservabilityServer::HandleEvents(const std::string& query) {
  uint64_t since = 0;
  const std::string since_str = QueryParam(query, "since");
  if (!since_str.empty()) {
    char* end = nullptr;
    since = std::strtoull(since_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return TextResponse(400, "bad since= value\n");
    }
  }
  size_t limit = 0;
  const std::string limit_str = QueryParam(query, "limit");
  if (!limit_str.empty()) {
    char* end = nullptr;
    limit = std::strtoull(limit_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return TextResponse(400, "bad limit= value\n");
    }
  }
  std::ostringstream os;
  journal_->WriteJsonl(os, since, limit);
  HttpResponse resp;
  resp.content_type = "application/x-ndjson";
  resp.body = os.str();
  return resp;
}

}  // namespace server
}  // namespace pregelix
