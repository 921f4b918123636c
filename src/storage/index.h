#ifndef PREGELIX_STORAGE_INDEX_H_
#define PREGELIX_STORAGE_INDEX_H_

#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace pregelix {

/// Forward cursor over an ordered index. Keys are visited in memcmp order.
///
/// key() and value() are views: a B-tree cursor's point into the leaf it
/// keeps pinned (an overflow value is assembled into the cursor's own
/// buffer). A view stays valid until the next Next or Seek, or until any
/// write to the index that does not go through this cursor. Drop a cursor
/// before writing to its index other than through it: an LSM write may
/// flush the memtable and merge away a component whose page the cursor
/// holds.
///
/// A cursor counts its seeks as `pregelix.storage.probes` and its
/// overwrites as `pregelix.storage.inserts`, once, when it is destroyed.
class IndexIterator {
 public:
  virtual ~IndexIterator() = default;

  virtual Status SeekToFirst() = 0;
  /// Positions at the first entry with key >= target. A B-tree cursor
  /// moving forward inside its pinned leaf does not descend from the root.
  virtual Status Seek(const Slice& target) = 0;
  virtual bool Valid() const = 0;
  virtual Status Next() = 0;

  virtual Slice key() const = 0;
  virtual Slice value() const = 0;

  /// Write-through: overwrites the current entry's value in place with
  /// `value`, which must have the same length, and sets *written; value()
  /// then reads the new bytes. Sets *written to false and changes nothing
  /// where the index cannot: a different length, or an LSM index, whose
  /// disk components are immutable.
  virtual Status TryOverwriteValue(const Slice& value, bool* written) = 0;
};

/// Sorted-input bulk loader; Add must be called in strictly increasing key
/// order.
class IndexBulkLoader {
 public:
  virtual ~IndexBulkLoader() = default;
  virtual Status Add(const Slice& key, const Slice& value) = 0;
  virtual Status Finish() = 0;
};

/// Ordered key-value index interface implemented by BTree and LsmBTree.
///
/// The Pregelix Vertex and Vid relations are stored behind this interface
/// (paper Section 5.2); the physical choice is a job-level hint. External
/// synchronization: one writer per partition (the dataflow scheduler
/// guarantees this via sticky location constraints).
class OrderedIndex {
 public:
  virtual ~OrderedIndex() = default;

  /// Inserts or replaces.
  virtual Status Upsert(const Slice& key, const Slice& value) = 0;
  /// Removes the key; OK even if absent.
  virtual Status Delete(const Slice& key) = 0;
  /// Point lookup. NotFound if absent.
  virtual Status Get(const Slice& key, std::string* value) = 0;
  virtual std::unique_ptr<IndexIterator> NewIterator() = 0;
  /// Creates a bulk loader. The index must be empty. While a loader is
  /// outstanding no other operation may run.
  virtual std::unique_ptr<IndexBulkLoader> NewBulkLoader() = 0;
  /// Durably writes buffered state.
  virtual Status Flush() = 0;
  /// Drops the backing files without writing anything back. The index must
  /// not be used afterwards, except that a second Destroy does nothing.
  virtual Status Destroy() = 0;
  /// Live entry count (excluding tombstoned keys).
  virtual uint64_t num_entries() const = 0;
};

}  // namespace pregelix

#endif  // PREGELIX_STORAGE_INDEX_H_
