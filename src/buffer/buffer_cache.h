#ifndef PREGELIX_BUFFER_BUFFER_CACHE_H_
#define PREGELIX_BUFFER_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "io/file.h"

namespace pregelix {

using PageId = uint32_t;

class BufferCache;

/// Pinned view of one page in the buffer pool. Must be unpinned (or
/// destroyed) before the page can be evicted. Movable, not copyable.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return cache_ != nullptr; }
  char* data() const { return data_; }
  PageId page_id() const { return page_id_; }

  /// Marks the page dirty so eviction/flush writes it back.
  void MarkDirty();

  /// Explicit early unpin.
  void Release();

 private:
  friend class BufferCache;
  BufferCache* cache_ = nullptr;
  int slot_ = -1;
  char* data_ = nullptr;
  PageId page_id_ = 0;
  bool dirty_pending_ = false;
};

/// Shared LRU buffer pool over paged files (one per simulated worker).
///
/// This is the component that makes the whole stack "gracefully spill to disk
/// only when necessary using a standard replacement policy, i.e., LRU"
/// (paper Section 5.4). B-trees and LSM B-trees allocate all their pages
/// through it; when the working set exceeds `capacity_pages`, unpinned pages
/// are evicted (with write-back if dirty) and the resulting I/O is metered,
/// which is exactly what moves a workload from the in-memory regime to the
/// out-of-core regime in the experiments.
///
/// Thread-safe: concurrent jobs in the throughput experiment (Figure 13)
/// share one cache per worker.
class BufferCache {
 public:
  BufferCache(size_t page_size, size_t capacity_pages, WorkerMetrics* metrics);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  size_t page_size() const { return page_size_; }
  size_t capacity_pages() const { return capacity_pages_; }

  /// Attaches observability sinks (a cache is per simulated worker, so the
  /// worker id becomes the label). The access methods built on this cache
  /// (B-tree, LSM) reach the tracer/registry through these accessors.
  void SetObservability(Tracer* tracer, MetricsRegistry* registry,
                        int worker) {
    tracer_ = tracer;
    registry_ = registry;
    worker_ = worker;
  }
  Tracer* tracer() const { return tracer_; }
  MetricsRegistry* registry() const { return registry_; }
  int worker_id() const { return worker_; }

  /// Publishes hit/miss/eviction/writeback counts into `registry` as
  /// pregelix.buffer.* gauges labeled with this cache's worker id.
  void PublishMetrics(MetricsRegistry* registry) const;

  /// Opens (or creates) a paged file; returns a cache-local file id.
  Status OpenFile(const std::string& path, int* file_id);

  /// Flushes dirty pages and drops cached pages of the file; the id becomes
  /// invalid.
  Status CloseFile(int file_id);

  /// Closes (without flushing) and unlinks the file.
  Status DeleteFile(int file_id);

  /// Number of pages currently in the file.
  uint32_t NumPages(int file_id) const;

  /// Pins page `page` of `file_id`. The page must exist.
  Status Pin(int file_id, PageId page, PageHandle* out);

  /// Appends a zeroed page to the file and pins it.
  Status AllocatePage(int file_id, PageHandle* out);

  /// Writes back all dirty pages of the file (keeps them cached).
  Status FlushFile(int file_id);

  // --- introspection for tests and stats ---
  // Relaxed atomics: readable from a stats thread while a scan is in
  // flight (they were plain uint64_t once, which was a data race).
  uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }
  uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t writeback_count() const {
    return writebacks_.load(std::memory_order_relaxed);
  }
  size_t pages_in_use() const;

 private:
  friend class PageHandle;

  struct Slot {
    std::string data;
    int file_id = -1;
    PageId page_id = 0;
    int pin_count = 0;
    bool dirty = false;
    bool valid = false;
    std::list<int>::iterator lru_pos;
    bool in_lru = false;
  };

  struct FileEntry {
    std::unique_ptr<RandomAccessFile> file;
    uint32_t num_pages = 0;
    bool open = false;
    std::string path;
    PageId last_miss_page = 0;  ///< elevator-model seek tracking
    bool touched = false;
  };

  static uint64_t Key(int file_id, PageId page) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(file_id)) << 32) |
           page;
  }

  void Unpin(int slot, bool dirty);

  Status GetFreeSlotLocked(int* slot_out) REQUIRES(mutex_);
  Status WriteBackLocked(Slot& slot) REQUIRES(mutex_);
  Status PinExistingOrLoadLocked(int file_id, PageId page, bool load,
                                 PageHandle* out) REQUIRES(mutex_);
  void TouchLocked(int slot) REQUIRES(mutex_);

  const size_t page_size_;
  const size_t capacity_pages_;
  WorkerMetrics* const metrics_;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  int worker_ = 0;

  mutable Mutex mutex_{"buffer_cache", LockRank::kBufferCache};
  std::vector<Slot> slots_ GUARDED_BY(mutex_);
  /// Unpinned slots, least-recently-used first.
  std::list<int> lru_ GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, int> page_table_ GUARDED_BY(mutex_);
  std::vector<FileEntry> files_ GUARDED_BY(mutex_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> writebacks_{0};
};

}  // namespace pregelix

#endif  // PREGELIX_BUFFER_BUFFER_CACHE_H_
