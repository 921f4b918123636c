#ifndef PREGELIX_STORAGE_BTREE_H_
#define PREGELIX_STORAGE_BTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_cache.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/index.h"

namespace pregelix {

/// Disk-resident B+-tree over a BufferCache-managed paged file.
///
/// Page layout (see btree.cc): slotted pages with a 16-byte header, slot
/// array growing up and cell data growing down; leaves are chained through a
/// right-sibling pointer for range scans; values larger than a quarter page
/// spill into an overflow page chain (web graphs have high-degree vertices
/// whose edge lists exceed a page). Page 0 is the meta page (root id, entry
/// count, first leaf).
///
/// Deletion is lazy (no rebalancing): pages may underflow but stay correct.
/// This is the standard trade-off for write-heavy iterative workloads; jobs
/// with drastic size changes are steered to the LSM B-tree (paper
/// Section 5.2).
///
/// A *finger* remembers the leaf the last root-to-leaf descent reached and
/// that leaf's first and last keys. Leaves hold disjoint, ordered key ranges
/// and are never freed, so a key inside that range can only live in that
/// leaf: `Get` and `Upsert` of such a key pin the leaf directly, as long as
/// no cell was added or removed anywhere since (`version_`).
///
/// An iterator keeps its current leaf pinned and hands out views into it
/// (index.h); destroy it before the tree is destroyed or its file closed. It
/// can overwrite a same-length value in place (`TryOverwriteValue`), and a
/// forward `Seek` that stays inside its leaf follows the finger's rule.
///
/// Not internally synchronized (even `Get` moves the finger); one partition
/// owns one tree.
class BTree : public OrderedIndex {
 public:
  /// Opens (or creates) a tree stored in `path` through `cache`.
  static Status Open(BufferCache* cache, const std::string& path,
                     std::unique_ptr<BTree>* out);
  ~BTree() override;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  Status Upsert(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Get(const Slice& key, std::string* value) override;
  std::unique_ptr<IndexIterator> NewIterator() override;
  std::unique_ptr<IndexBulkLoader> NewBulkLoader() override;
  Status Flush() override;
  Status Destroy() override;
  uint64_t num_entries() const override { return num_entries_; }

  uint32_t num_pages() const { return cache_->NumPages(file_id_); }
  int height() const { return height_; }

  /// Structural invariant check (debug/test aid): separators sorted, child
  /// subtree key ranges consistent with separators, leaf chain complete and
  /// ordered. Returns Corruption with a description on violation.
  Status CheckConsistency() const;

  /// Prints the node structure with int64-decoded keys (debug aid).
  void DumpStructure() const;

 private:
  friend class BTreeIterator;
  friend class BTreeBulkLoader;

  BTree(BufferCache* cache, int file_id);

  Status LoadMeta();
  Status SaveMeta();

  /// Descends from the root to the leaf that should hold `key`; fills
  /// `path_pages` with the page ids along the way (root first). Re-seats the
  /// finger on that leaf.
  ///
  /// With `lower_fence` set (insert descent), any interior node whose first
  /// separator exceeds `key` gets that separator lowered to the -infinity
  /// fence (empty key). This preserves the invariant that every separator is
  /// a lower bound for its child subtree, which later splits rely on when
  /// they insert new separators by key order.
  Status FindLeaf(const Slice& key, std::vector<PageId>* path_pages,
                  PageId* leaf, bool lower_fence = false);
  /// True when `key` lies in the finger leaf's key range and no cell was
  /// added or removed since the finger was seated.
  bool InFinger(const Slice& key) const {
    return finger_version_ == version_ &&
           key.compare(Slice(finger_first_)) >= 0 &&
           key.compare(Slice(finger_last_)) <= 0;
  }

  Status InsertIntoLeaf(const Slice& key, const std::string& cell,
                        std::vector<PageId>& path, PageId leaf_id);
  /// Inserts a separator into the parent chain after a split.
  Status InsertIntoInterior(std::vector<PageId>& path, size_t level_index,
                            const std::string& sep_key, PageId child);
  Status SplitRoot(const std::string& left_key, PageId left,
                   const std::string& right_key, PageId right, uint8_t level);

  /// Takes a page from the free list or appends one.
  Status AllocOverflowPage(PageHandle* out, PageId* id);
  /// Writes a (possibly overflowing) value; produces the encoded leaf cell
  /// payload (inline bytes or overflow reference).
  Status EncodeLeafValue(const Slice& value, std::string* cell_payload,
                         bool* overflow);
  Status ReadLeafValue(const Slice& cell_payload, bool overflow,
                       std::string* value) const;
  /// Overwrites an overflow value page by page along its chain with
  /// `value`, which has the stored length; marks each page dirty.
  Status OverwriteOverflowChain(const Slice& cell_payload, const Slice& value);
  Status FreeOverflowChain(const Slice& cell_payload);

  BufferCache* cache_;
  int file_id_;
  // Cached registry counters (null when the cache has no registry attached,
  // e.g. a standalone cache in a unit test). Labeled storage_tier=btree.
  Counter* probes_ = nullptr;
  Counter* inserts_ = nullptr;
  PageId root_ = 0;
  PageId first_leaf_ = 0;
  PageId free_head_ = 0xFFFFFFFFu;  ///< head of the freed-page list
  uint64_t num_entries_ = 0;
  int height_ = 1;
  bool destroyed_ = false;
  /// Bumped by every insert, delete, split and bulk-load append; an
  /// in-place overwrite of a value keeps it.
  uint64_t version_ = 1;
  uint64_t finger_version_ = 0;  ///< version_ at seating; 0 = no finger
  PageId finger_leaf_ = 0;
  std::string finger_first_;
  std::string finger_last_;
};

}  // namespace pregelix

#endif  // PREGELIX_STORAGE_BTREE_H_
