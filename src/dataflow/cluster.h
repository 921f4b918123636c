#ifndef PREGELIX_DATAFLOW_CLUSTER_H_
#define PREGELIX_DATAFLOW_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_cache.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace pregelix {

struct OverlapRuntime;  // dataflow/ops/sort.h

/// The simulated shared-nothing cluster (DESIGN.md substitution #1).
///
/// One SimulatedCluster owns N "worker machines": each worker has its own
/// scratch directory (its local disks), its own buffer cache sized from the
/// configured worker RAM (paper: 1/4 of physical RAM for access methods),
/// and its own resource meter. Dataflow partitions map to workers with a
/// fixed round-robin map — the analog of Hyracks' absolute location
/// constraints, which Pregelix uses for sticky iterative scheduling.
class SimulatedCluster {
 public:
  explicit SimulatedCluster(const ClusterConfig& config);

  SimulatedCluster(const SimulatedCluster&) = delete;
  SimulatedCluster& operator=(const SimulatedCluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  int num_workers() const { return config_.num_workers; }
  int num_partitions() const { return config_.num_partitions(); }

  int worker_of_partition(int partition) const {
    return partition % config_.num_workers;
  }

  // The per-worker accessors hand out references that tasks hold for a
  // whole job, so they cannot ride workers_mutex_; their contract is that
  // FailWorker (the only mutator) never runs concurrently with a job on
  // the same worker — the fault-tolerance driver fails workers between
  // superstep jobs. Metrics/stat scrapes (PublishMetrics, SnapshotAll) may
  // run at any time and therefore do take the lock.
  WorkerMetrics& metrics(int worker) NO_THREAD_SAFETY_ANALYSIS {
    return *workers_[worker]->metrics;
  }
  BufferCache& cache(int worker) NO_THREAD_SAFETY_ANALYSIS {
    return *workers_[worker]->cache;
  }
  const std::string& worker_dir(int worker) const NO_THREAD_SAFETY_ANALYSIS {
    return workers_[worker]->dir;
  }

  /// Observability sinks (from ClusterConfig, falling back to the process
  /// globals). Never null.
  Tracer* tracer() const { return tracer_; }
  MetricsRegistry* registry() const { return registry_; }

  /// Inert: perfbench/perfbench.cc still calls it; always null.
  OverlapRuntime* overlap() const { return nullptr; }

  /// Publishes per-worker counters (cost-model meters and buffer-cache
  /// hit/miss/eviction/writeback) into the registry as labeled gauges.
  /// Called before a metrics export; cheap enough to call repeatedly.
  void PublishMetrics();

  /// Scratch directory for one partition (under its worker's disks).
  std::string partition_dir(int partition) const;

  /// Per-worker counter snapshot, for cost-model deltas at superstep
  /// boundaries.
  std::vector<MetricsSnapshot> SnapshotAll() const;

  /// Simulated failure (paper Section 5.5): wipes the worker's local state
  /// so recovery must reload from the checkpoint. The worker's scratch is
  /// recreated empty.
  Status FailWorker(int worker);

  /// Unique id generator for scratch file names.
  uint64_t NextFileId() { return next_file_id_.fetch_add(1); }

 private:
  struct Worker {
    std::unique_ptr<WorkerMetrics> metrics;
    std::unique_ptr<BufferCache> cache;
    std::string dir;
  };

  ClusterConfig config_;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  /// Guards the worker table against FailWorker's cache replacement racing
  /// a concurrent metrics scrape. The vector itself is fixed after
  /// construction; the lock covers the per-worker cache pointer swap.
  mutable Mutex workers_mutex_{"cluster", LockRank::kCluster};
  std::vector<std::unique_ptr<Worker>> workers_ GUARDED_BY(workers_mutex_);
  std::atomic<uint64_t> next_file_id_{0};
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_CLUSTER_H_
