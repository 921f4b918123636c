#ifndef PREGELIX_STORAGE_LSM_BTREE_H_
#define PREGELIX_STORAGE_LSM_BTREE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_cache.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/index.h"

namespace pregelix {

/// Log-structured merge B-tree (paper Section 4): an in-memory component
/// absorbs updates; when it exceeds its budget it is bulk-loaded into an
/// immutable on-disk B-tree component (sequential I/O); lookups consult
/// components newest-first; deletes are tombstones; a full merge collapses
/// the component stack when it grows past a threshold.
///
/// Chosen for workloads whose vertex data changes size drastically across
/// supersteps or that mutate the graph heavily (e.g., genome path merging),
/// where in-place B-tree updates would churn (paper Section 5.2).
class LsmBTree : public OrderedIndex {
 public:
  /// `dir` holds the component files; `memtable_budget_bytes` bounds the
  /// in-memory component (the paper pins buffer pages for it; we account
  /// heap bytes against the same budget).
  static Status Open(BufferCache* cache, const std::string& dir,
                     size_t memtable_budget_bytes,
                     std::unique_ptr<LsmBTree>* out);
  ~LsmBTree() override;

  Status Upsert(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Get(const Slice& key, std::string* value) override;
  std::unique_ptr<IndexIterator> NewIterator() override;
  Status Flush() override;

  /// Estimated live entries (exact after a full merge; between merges the
  /// estimate may double-count overwritten keys). The Pregelix runtime
  /// keeps its own exact vertex counts.
  uint64_t num_entries() const override;

  /// Sorted-input fast path: loads directly into one disk component.
  std::unique_ptr<IndexBulkLoader> NewBulkLoader();

  Status Destroy();

  /// Forces the memtable to disk (also triggered by the budget).
  Status FlushMemtable();
  /// Merges all disk components into one.
  Status MergeAll();

  int num_disk_components() const {
    return static_cast<int>(components_.size());
  }

  /// Components beyond this trigger MergeAll on the next flush.
  static constexpr int kMaxComponents = 4;

 private:
  friend class LsmIterator;
  friend class LsmBulkLoader;

  LsmBTree(BufferCache* cache, std::string dir, size_t budget);

  Status Write(const Slice& key, const Slice& value, bool tombstone);
  std::string ComponentPath(uint64_t id) const;

  /// Atomically rewrites the CURRENT manifest to list `component_ids_`
  /// (newest first). This is the commit point of flush/merge/bulk-load: a
  /// component not listed in CURRENT does not exist after reopen.
  /// `fault_point` names the injection point evaluated before the write.
  Status WriteCurrent(const char* fault_point);

  BufferCache* cache_;
  // Cached registry counters (null without an attached registry). Labeled
  // storage_tier=lsm; the component B-trees count their own probes.
  Counter* probes_ = nullptr;
  Counter* inserts_ = nullptr;
  std::string dir_;
  size_t memtable_budget_;
  size_t memtable_bytes_ = 0;

  /// Entries carry a 1-byte marker prefix: 0 = put, 1 = tombstone.
  std::map<std::string, std::string> memtable_;
  /// Disk components, newest first. `component_ids_` is kept in lockstep
  /// and backs the CURRENT manifest.
  std::vector<std::unique_ptr<BTree>> components_;
  std::vector<uint64_t> component_ids_;
  uint64_t next_component_id_ = 0;
  uint64_t tombstones_ = 0;
  bool destroyed_ = false;
};

}  // namespace pregelix

#endif  // PREGELIX_STORAGE_LSM_BTREE_H_
