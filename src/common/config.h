#ifndef PREGELIX_COMMON_CONFIG_H_
#define PREGELIX_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace pregelix {

class Tracer;
class MetricsRegistry;

/// Configuration of the simulated shared-nothing cluster.
///
/// One ClusterConfig describes a cluster of `num_workers` worker "machines",
/// each with its own scratch directory, buffer cache, and a simulated RAM
/// budget `worker_ram_bytes`. The paper's defaults are reproduced at a scaled
/// size: the access-method buffer cache gets 1/4 of worker RAM and each
/// group-by clone gets a fixed buffer (Section 7.1 of the paper).
struct ClusterConfig {
  int num_workers = 4;
  /// Partitions per worker; the scheduler assigns as many partitions to a
  /// machine as it has cores (paper Section 5.7). 1 keeps tests simple.
  int partitions_per_worker = 1;

  size_t frame_size = 32 * 1024;  ///< dataflow frame (network/sort unit)
  size_t page_size = 4 * 1024;    ///< storage page (B-tree node)

  /// Simulated physical RAM per worker. Baselines are byte-accounted against
  /// this; Pregelix derives its explicit budgets from it (see Derive()).
  size_t worker_ram_bytes = 16u << 20;

  size_t buffer_cache_pages = 0;    ///< 0 = derive as worker_ram/4 / page_size
  size_t groupby_memory_bytes = 0;  ///< 0 = derive as worker_ram/16
  size_t channel_capacity_frames = 16;

  std::string temp_root;  ///< scratch root; must be set by the caller

  /// Observability sinks. nullptr = use the process-wide Tracer::Global()
  /// and MetricsRegistry::Global(); tests pass their own for isolation.
  /// Spans cost nothing unless the tracer is enabled.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics_registry = nullptr;

  int num_partitions() const { return num_workers * partitions_per_worker; }

  /// Fills any zero budget fields from worker_ram_bytes.
  ClusterConfig Derive() const {
    ClusterConfig c = *this;
    if (c.buffer_cache_pages == 0) {
      c.buffer_cache_pages = (c.worker_ram_bytes / 4) / c.page_size;
      if (c.buffer_cache_pages < 16) c.buffer_cache_pages = 16;
    }
    if (c.groupby_memory_bytes == 0) {
      c.groupby_memory_bytes = c.worker_ram_bytes / 16;
      if (c.groupby_memory_bytes < 64 * 1024) c.groupby_memory_bytes = 64 * 1024;
    }
    return c;
  }

  /// Total simulated cluster RAM; figures plot dataset size relative to this.
  size_t aggregate_ram_bytes() const {
    return worker_ram_bytes * static_cast<size_t>(num_workers);
  }
};

}  // namespace pregelix

#endif  // PREGELIX_COMMON_CONFIG_H_
