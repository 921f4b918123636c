#ifndef PREGELIX_SERVER_SERVER_H_
#define PREGELIX_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "server/http.h"
#include "server/job_registry.h"

// Embedded HTTP/1.1 observability server (DESIGN.md "Live observability
// server").
//
// One blocking accept thread feeds a bounded fd queue drained by a small
// fixed pool of worker threads; every connection is read with a receive
// timeout, answered with exactly one response, and closed (Connection:
// close). No external dependencies — raw POSIX sockets, loopback by
// default. The server only *reads* engine state (MetricsRegistry,
// JobStatusRegistry, EventJournal), so it can never deadlock a running job:
// handler threads take only the kServer / kJobRegistry / kEventJournal /
// kMetricsRegistry locks, each for one snapshot.
//
// Endpoint table (tools/lint.py cross-checks this against DESIGN.md):
// see kEndpoints in server.cc.

namespace pregelix {
namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is port() after Start
  int worker_threads = 2;
  size_t queue_capacity = 8;  ///< pending accepted fds; overflow -> 503
  ParseLimits limits;
  /// Per-connection receive/send timeout.
  int io_timeout_seconds = 5;
  /// Shown on /statusz (version, build type).
  std::string build_info = "pregelix-dev";
};

class ObservabilityServer {
 public:
  /// Null sources are replaced by the process-wide defaults
  /// (MetricsRegistry/JobStatusRegistry/EventJournal ::Global()).
  ObservabilityServer(ServerOptions options, MetricsRegistry* metrics,
                      JobStatusRegistry* jobs, EventJournal* journal);
  ~ObservabilityServer();

  ObservabilityServer(const ObservabilityServer&) = delete;
  ObservabilityServer& operator=(const ObservabilityServer&) = delete;

  /// Binds, listens, and starts the accept + worker threads. Fails (kIoError)
  /// if the address cannot be bound.
  Status Start();
  /// Stops accepting, drains the queue, joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound TCP port (after Start); 0 before.
  int port() const { return bound_port_; }
  const std::string& host() const { return options_.host; }

  /// /readyz flips 200/503 on this; starts false.
  void SetReady(bool ready) {
    ready_.store(ready, std::memory_order_release);
  }

  /// Invoked before serving /metrics so the embedding process can refresh
  /// point-in-time gauges (e.g. SimulatedCluster::PublishMetrics).
  void SetPreScrapeHook(std::function<void()> hook);

  /// Pure request -> response routing, no sockets. Exposed so tests can
  /// drive every endpoint without a network.
  HttpResponse Dispatch(const HttpRequest& req);

  /// Uptime since Start, for /statusz.
  double UptimeSeconds() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  HttpResponse HandleMetrics();
  HttpResponse HandleProfilez(const std::string& query);
  HttpResponse HandleStatusz();
  HttpResponse HandleJobs();
  HttpResponse HandleJob(const std::string& job_id);
  HttpResponse HandleEvents(const std::string& query);
  void CountRequest(const std::string& endpoint, int code);

  ServerOptions options_;
  MetricsRegistry* const metrics_;
  JobStatusRegistry* const jobs_;
  EventJournal* const journal_;

  std::atomic<bool> running_{false};
  std::atomic<bool> ready_{false};
  /// Atomic: Stop() closes and clears it while AcceptLoop still reads it.
  std::atomic<int> listen_fd_{-1};
  int bound_port_ = 0;
  uint64_t started_steady_ns_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  Mutex mutex_{"server", LockRank::kServer};
  CondVar queue_cv_;
  std::deque<int> queue_ GUARDED_BY(mutex_);
  bool shutting_down_ GUARDED_BY(mutex_) = false;
  std::function<void()> pre_scrape_hook_ GUARDED_BY(mutex_);

  // Self-metrics, registered in the served registry (DESIGN.md §10).
  Gauge* active_connections_ = nullptr;
  Counter* errors_accept_ = nullptr;
  Counter* errors_read_ = nullptr;
  Counter* errors_write_ = nullptr;
  Counter* errors_overflow_ = nullptr;
};

}  // namespace server
}  // namespace pregelix

#endif  // PREGELIX_SERVER_SERVER_H_
