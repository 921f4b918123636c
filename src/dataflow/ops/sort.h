#ifndef PREGELIX_DATAFLOW_OPS_SORT_H_
#define PREGELIX_DATAFLOW_OPS_SORT_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/trace.h"
#include "dataflow/frame.h"
#include "io/run_file.h"

namespace pregelix {

struct OperatorStats;  // dataflow/plan_profile.h

/// Inert: perfbench/perfbench.cc still reads these names; drop them when the
/// benchmark next changes. Every counter is 0.
struct OverlapRuntime {
  struct Counters {
    uint64_t hits() const { return 0; }
    uint64_t wasted() const { return 0; }
    uint64_t stall_count() const { return 0; }
  };
  Counters prefetch() const { return {}; }
  Counters writebehind() const { return {}; }
};

/// Streaming consumer of sorted output: called once per tuple, in key order.
using TupleEmitFn = std::function<Status(std::span<const Slice> fields)>;

/// Aggregation hooks for message combination (the user's `combine` UDF
/// packaged for the group-by operators). Operates on the payload field of
/// (key, payload) tuples; must be associative and commutative, as required
/// of Pregel combiners. The default combiner (gather into a list) is built
/// by the Pregelix layer on top of these hooks.
struct GroupCombiner {
  /// Starts an accumulator from the first payload of a group.
  std::function<void(const Slice& payload, std::string* acc)> init;
  /// Folds another payload into the accumulator.
  std::function<void(const Slice& payload, std::string* acc)> step;
  /// Optional final transform of the accumulator before emission.
  std::function<void(std::string* acc)> finish;
  /// Payload and accumulator width in bytes when every payload has one
  /// fixed width and `init` copies it; 0 = variable width. Only fixed-width
  /// combiners run dense.
  size_t width = 0;
  /// Fixed-width fold (set iff width > 0): folds the `width` bytes at `in`
  /// into the `width` bytes at `acc`, in place.
  std::function<void(char* acc, const char* in)> fold;

  bool valid() const { return static_cast<bool>(init) && static_cast<bool>(step); }
};

/// Shared configuration for the sort/group-by family.
struct SortConfig {
  int field_count = 2;
  int key_field = 0;
  size_t memory_budget_bytes = 1 << 20;  ///< in-memory batch / table budget
  size_t frame_size = 32 * 1024;
  std::string scratch_prefix;  ///< run files: <prefix>-run-<i>
  WorkerMetrics* metrics = nullptr;
  Tracer* tracer = nullptr;  ///< optional; spans for run generation vs merge
  int worker = 0;            ///< worker id stamped on sort spans
  int merge_fanin = 16;
  /// Plan-profile slot of the driving operator clone (null when a kernel
  /// runs outside RunJob, as in the kernel tests and benches). The groupers
  /// record their memory high-water mark at spill/finish boundaries and each
  /// spilled run's byte volume into it.
  OperatorStats* profile = nullptr;
  /// Inert: perfbench/perfbench.cc still sets it; nothing reads it.
  OverlapRuntime* overlap = nullptr;
};

/// A group-by (or, without a combiner, a sort) over tuples that arrive in
/// any key order: Add them all, then Finish streams the result in key order.
/// The superstep plans pick one implementation per superstep.
class Grouper {
 public:
  Grouper() = default;
  Grouper(const Grouper&) = delete;
  Grouper& operator=(const Grouper&) = delete;
  virtual ~Grouper() = default;
  virtual Status Add(std::span<const Slice> fields) = 0;
  /// Streams everything added to `emit` in key order, one combined tuple per
  /// key when combining. The instance is exhausted afterwards.
  virtual Status Finish(const TupleEmitFn& emit) = 0;
};

/// External sort with optional early aggregation (paper Section 4
/// "sort-based group-by": the combine function is pushed into both the
/// in-memory sort phase and the merge phase).
///
/// Without a combiner this is the plain external sort operator (used by the
/// data-loading and recovery plans to prepare bulk-load input). With a
/// combiner (field_count must be 2, key_field 0) it is the sort-based
/// group-by: runs are written pre-combined and merging combines across runs,
/// so spill volume shrinks with the combining factor.
class ExternalSortGrouper final : public Grouper {
 public:
  ExternalSortGrouper(const SortConfig& config, GroupCombiner combiner = {});
  ~ExternalSortGrouper() override;

  Status Add(std::span<const Slice> fields) override;

  /// Sorts/merges everything added and streams it to `emit` in key order.
  Status Finish(const TupleEmitFn& emit) override;

  int runs_spilled() const { return static_cast<int>(run_paths_.size()); }

 private:
  Status SpillBatch();
  /// Sorts the in-memory batch and feeds it (combined if configured) to fn.
  Status DrainBatchSorted(const TupleEmitFn& fn);
  /// Sorts entries_ by key (norm-prefix fast path); charges the sort's CPU.
  void SortBatch();
  /// Bytes the in-memory batch charges against memory_budget_bytes: pool
  /// bytes plus the entry array's real footprint (capacity, not size).
  size_t BatchBytes() const;

  SortConfig config_;
  GroupCombiner combiner_;
  uint64_t pending_ops_ = 0;  ///< Add's tuple-ops, charged at spill/Finish

  // In-memory batch: raw tuple bytes in a pool, one entry per tuple carrying
  // the tuple's (offset, size) plus its normalized key prefix, cached at Add
  // time so the common sort comparison is a single integer compare (the full
  // key is only decoded from the pool on a prefix tie). Sorting permutes the
  // entry array only.
  std::string pool_;
  struct Entry {
    uint64_t norm;  ///< NormalizedKeyPrefix of the key field
    uint32_t offset;
    uint32_t size;
  };
  /// Key field of one batch entry, decoded from the pool.
  Slice EntryKey(const Entry& e) const;
  std::vector<Entry> entries_;
  std::vector<std::string> run_paths_;
  std::string acc_;  ///< reused accumulator buffer for combined drains
  /// Key width of the current batch when every key so far has one width
  /// ≤ 8 bytes (the cached norm prefix is then injective and the batch
  /// sort/group loops run on the entry strip alone); -1 = empty batch,
  /// -2 = mixed or long keys.
  int64_t batch_key_size_ = -1;
  uint64_t next_run_id_ = 0;
  bool finished_ = false;
};

/// Hash-based pre-aggregation with sorted spill runs (paper Section 4
/// "HashSort group-by"): groups are absorbed into an in-memory hash table;
/// when the table exceeds its budget it is emptied as one sorted, combined
/// run; the merge phase is shared with the sort-based group-by. Faster than
/// sort-based when the number of distinct keys is small.
///
/// The table is a flat open-addressing index (slot array of group indices)
/// over an insertion-ordered group vector whose keys live in one arena, so
/// the hit path — hash, probe, combiner step into the resident accumulator
/// — performs no heap allocation (fixed-width accumulators stay in the
/// string's inline buffer). Memory is accounted from the real footprint of
/// the arena, the group and slot arrays, and a signed running total of
/// accumulator bytes (a combiner step may shrink its accumulator).
class HashSortGrouper final : public Grouper {
 public:
  HashSortGrouper(const SortConfig& config, GroupCombiner combiner);
  ~HashSortGrouper() override;

  Status Add(std::span<const Slice> fields) override;
  Status Finish(const TupleEmitFn& emit) override;

  int runs_spilled() const { return static_cast<int>(run_paths_.size()); }

 private:
  struct Group {
    uint64_t hash;        ///< full 64-bit key hash (probe filter)
    uint64_t norm;        ///< NormalizedKeyPrefix, cached for the spill sort
    uint32_t key_offset;  ///< into key_arena_
    uint32_t key_size;
    std::string acc;
  };

  Slice GroupKey(const Group& g) const {
    return Slice(key_arena_.data() + g.key_offset, g.key_size);
  }
  /// Real bytes held by the table against memory_budget_bytes.
  size_t TableBytes() const;
  /// Doubles the slot array and rehashes the group indices into it.
  void GrowSlots();
  /// Sorted-by-key view of groups_ (indices), using the cached norm keys.
  void SortedOrder(std::vector<uint32_t>* order) const;
  Status SpillTable();

  SortConfig config_;
  GroupCombiner combiner_;
  uint64_t pending_ops_ = 0;     ///< Add's tuple-ops, charged at spill/Finish
  std::string key_arena_;        ///< group keys, back to back
  std::vector<Group> groups_;    ///< insertion order
  std::vector<uint32_t> slots_;  ///< open addressing; group index + 1, 0 empty
  int64_t acc_bytes_ = 0;        ///< signed sum of acc sizes (steps may shrink)
  std::vector<std::string> run_paths_;
  /// One key width ≤ 8 across the table makes the cached norms distinct
  /// (keys are deduped), so the spill sort runs over a contiguous
  /// (norm, index) strip; -1 = empty, -2 = mixed or long keys.
  int64_t uniform_key_size_ = -1;
  uint64_t next_run_id_ = 0;
  bool finished_ = false;
};

/// Direct-addressed group-by for fixed-width combiners, an extension beside
/// the paper's sort and hash-sort group-bys (a combined mailbox in the
/// style of iPregel): one `width`-byte accumulator slot
/// per key of the vid range [lo, lo + slots) plus a presence bitmap. Add
/// decodes the 8-byte OrderedKeyI64 key and copies the payload into an
/// empty slot or folds it into a filled one; Finish walks the bitmap and
/// emits the slots in slot order, which is key order. Nothing is sorted or
/// spilled. A key outside the range (a vertex created after load) goes to
/// an overflow ExternalSortGrouper, built on first use with whatever budget
/// the array leaves; Finish emits its keys below the range, the slots, then
/// its keys above the range.
class DenseGrouper final : public Grouper {
 public:
  /// `combiner.width` must be > 0.
  DenseGrouper(const SortConfig& config, GroupCombiner combiner, int64_t lo,
               uint64_t slots);

  /// A key that is not 8 bytes or a payload that is not `width` bytes
  /// returns InvalidArgument.
  Status Add(std::span<const Slice> fields) override;
  Status Finish(const TupleEmitFn& emit) override;

  /// Add for a caller that holds the vid itself and a payload of exactly
  /// `width()` bytes (the compute operator's send side): no key is encoded
  /// or decoded and nothing is checked. A vid outside the range goes to the
  /// overflow, as in Add.
  Status AddVid(int64_t vid, const char* payload) {
    // Unsigned: a vid below lo wraps past every slot, and nothing overflows.
    const uint64_t slot =
        static_cast<uint64_t>(vid) - static_cast<uint64_t>(lo_);
    if (slot >= slots_) return AddOverflow(vid, payload);
    char* acc = acc_.get() + slot * width_;
    uint64_t& word = present_[slot / 64];
    const uint64_t bit = uint64_t{1} << (slot % 64);
    if ((word & bit) != 0) {
      combiner_.fold(acc, payload);
    } else {
      std::memcpy(acc, payload, width_);
      word |= bit;
    }
    ++pending_ops_;
    return Status::OK();
  }

  size_t width() const { return width_; }

  /// Bytes of the slot array plus the presence bitmap: what `slots` slots
  /// of `width` bytes take out of the group-by budget.
  static uint64_t ArrayBytes(uint64_t slots, size_t width) {
    return slots * width + (slots + 63) / 64 * 8;
  }

 private:
  Status AddOverflow(int64_t vid, const char* payload);
  Status EmitSlots(const TupleEmitFn& emit);

  SortConfig config_;
  GroupCombiner combiner_;
  const int64_t lo_;
  const uint64_t slots_;
  const size_t width_;
  std::unique_ptr<char[]> acc_;    ///< slots × width; only present slots set
  std::vector<uint64_t> present_;  ///< bit s set = slot s holds a value
  std::unique_ptr<ExternalSortGrouper> overflow_;
  uint64_t pending_ops_ = 0;  ///< Add's tuple-ops, charged at Finish
  bool finished_ = false;
};

/// Streaming group-by over already-clustered input (paper Section 4
/// "preclustered group-by"); pairs with the m-to-n partitioning merging
/// connector whose receiver delivers key-sorted tuples.
class PreclusteredGrouper {
 public:
  PreclusteredGrouper(GroupCombiner combiner, WorkerMetrics* metrics);

  /// Input must arrive in non-decreasing key order.
  Status Add(const Slice& key, const Slice& payload, const TupleEmitFn& emit);
  /// Flushes the last group.
  Status Finish(const TupleEmitFn& emit);

 private:
  Status EmitCurrent(const TupleEmitFn& emit);

  GroupCombiner combiner_;
  WorkerMetrics* metrics_;
  uint64_t pending_ops_ = 0;  ///< Add's tuple-ops, charged at Finish
  // Group-key and accumulator buffers are assigned into, never replaced, so
  // a steady stream of groups reuses their capacity instead of allocating.
  std::string current_key_;
  std::string acc_;
  bool has_group_ = false;
};

namespace internal_sort {

/// K-way merge (with optional combining) over run files written by the
/// groupers; shared by both spilling implementations. Multi-pass when the
/// number of runs exceeds the fan-in.
Status MergeRuns(const SortConfig& config, const GroupCombiner& combiner,
                 std::vector<std::string> run_paths, const TupleEmitFn& emit);

/// Writes tuples to a run file as frames. Helper for the groupers.
class RunWriter {
 public:
  RunWriter(const SortConfig& config, const std::string& path);
  Status Append(std::span<const Slice> fields);
  Status Finish();

  /// Frame bytes written to the run file so far (complete after Finish).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  FrameTupleAppender appender_;
  std::unique_ptr<RunFileWriter> file_;
  std::string path_;
  Status open_status_;
  uint64_t bytes_written_ = 0;
};

}  // namespace internal_sort

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_OPS_SORT_H_
