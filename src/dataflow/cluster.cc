#include "dataflow/cluster.h"

#include "common/logging.h"
#include "common/temp_dir.h"

namespace pregelix {

SimulatedCluster::SimulatedCluster(const ClusterConfig& config)
    : config_(config.Derive()),
      tracer_(config.tracer != nullptr ? config.tracer : &Tracer::Global()),
      registry_(config.metrics_registry != nullptr ? config.metrics_registry
                                                   : &MetricsRegistry::Global()) {
  PREGELIX_CHECK(!config_.temp_root.empty())
      << "ClusterConfig.temp_root must be set";
  PREGELIX_CHECK(config_.num_workers > 0);
  for (int w = 0; w < config_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->dir = config_.temp_root + "/worker-" + std::to_string(w);
    PREGELIX_CHECK(EnsureDir(worker->dir));
    worker->metrics = std::make_unique<WorkerMetrics>();
    worker->cache = std::make_unique<BufferCache>(
        config_.page_size, config_.buffer_cache_pages, worker->metrics.get());
    worker->cache->SetObservability(tracer_, registry_, w);
    workers_.push_back(std::move(worker));
  }
}

std::string SimulatedCluster::partition_dir(int partition) const
    NO_THREAD_SAFETY_ANALYSIS {
  // Reads only the worker dir string, fixed at construction.
  return workers_[worker_of_partition(partition)]->dir + "/p" +
         std::to_string(partition);
}

std::vector<MetricsSnapshot> SimulatedCluster::SnapshotAll() const {
  MutexLock lock(&workers_mutex_);
  std::vector<MetricsSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    out.push_back(worker->metrics->Snapshot());
  }
  return out;
}

void SimulatedCluster::PublishMetrics() {
  MutexLock lock(&workers_mutex_);
  for (size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = *workers_[w];
    const MetricsSnapshot snap = worker.metrics->Snapshot();
    const MetricLabels labels{{"worker", std::to_string(w)}};
    registry_->GetGauge("pregelix.worker.cpu_ops", labels)
        ->Set(static_cast<int64_t>(snap.cpu_ops));
    registry_->GetGauge("pregelix.worker.disk_read_bytes", labels)
        ->Set(static_cast<int64_t>(snap.disk_read_bytes));
    registry_->GetGauge("pregelix.worker.disk_write_bytes", labels)
        ->Set(static_cast<int64_t>(snap.disk_write_bytes));
    registry_->GetGauge("pregelix.worker.disk_seeks", labels)
        ->Set(static_cast<int64_t>(snap.disk_seeks));
    registry_->GetGauge("pregelix.worker.net_bytes", labels)
        ->Set(static_cast<int64_t>(snap.net_bytes));
    worker.cache->PublishMetrics(registry_);
  }
}

Status SimulatedCluster::FailWorker(int worker) {
  PREGELIX_CHECK(worker >= 0 && worker < num_workers());
  MutexLock lock(&workers_mutex_);
  Worker& w = *workers_[worker];
  // Drop the buffer cache (all open files and cached pages die with the
  // machine), then wipe and recreate its scratch directory.
  w.cache = std::make_unique<BufferCache>(
      config_.page_size, config_.buffer_cache_pages, w.metrics.get());
  w.cache->SetObservability(tracer_, registry_, worker);
  RemoveAll(w.dir);
  if (!EnsureDir(w.dir)) {
    return Status::IoError("cannot recreate worker dir " + w.dir);
  }
  return Status::OK();
}

}  // namespace pregelix
