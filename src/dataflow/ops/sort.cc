#include "dataflow/ops/sort.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/time_ledger.h"
#include "dataflow/operator.h"
#include "dataflow/ops/loser_tree.h"
#include "dataflow/plan_profile.h"
#include "dataflow/tuple_run.h"
#include "io/file.h"

namespace pregelix {

namespace {

/// Adds a grouper's counted tuple-ops to the worker's counter and clears
/// them. The counter is shared by every task of the worker, so the groupers
/// charge once per spill and Finish rather than once per tuple.
void ChargeOps(WorkerMetrics* metrics, uint64_t* ops) {
  if (metrics != nullptr) metrics->AddCpuOps(*ops);
  *ops = 0;
}

/// Merges the given run cursors in key order, optionally combining equal
/// keys, and feeds `emit`. `apply_finish` controls whether the combiner's
/// final transform runs (only on the last pass).
Status MergeCursors(std::vector<std::unique_ptr<TupleRunReader>>& cursors,
                    int key_field, const GroupCombiner& combiner,
                    bool apply_finish, WorkerMetrics* metrics,
                    const TupleEmitFn& emit) {
  // Time ledger: the k-way merge (and its combine fold) is the merge
  // phase; nested I/O scopes in the run-file/file layers suspend it.
  ScopedTimeCategory merge(TimeCategory::kMerge);
  uint64_t tuples = 0;
  LoserTree<TupleRunReader> tree(cursors, key_field);
  tree.Init();
  // The sort merge's advance passes the fault point "sort.merge.refill"
  // once per consumed tuple. The shared tree hits none, so a
  // merging-connector receive never fires it.
  auto advance = [&tree]() -> Status {
    PREGELIX_RETURN_NOT_OK(fault::MaybeFail("sort.merge.refill"));
    return tree.AdvanceWinner();
  };
  if (combiner.valid()) {
    // Group-key and accumulator buffers persist across groups: assignment
    // reuses their capacity, so steady state allocates nothing per group.
    std::string group_key;
    std::string acc;
    while (tree.winner() >= 0) {
      TupleRunReader& w = tree.winner_cursor();
      const uint64_t group_norm = tree.winner_norm();
      const Slice first_key = w.field(0);
      group_key.assign(first_key.data(), first_key.size());
      combiner.init(w.field(1), &acc);
      PREGELIX_RETURN_NOT_OK(advance());
      ++tuples;
      // Fold in every other tuple with the same key, in run order (the
      // tree's tie rule).
      while (tree.winner() >= 0 && tree.winner_norm() == group_norm &&
             tree.winner_cursor().field(0) == Slice(group_key)) {
        combiner.step(tree.winner_cursor().field(1), &acc);
        PREGELIX_RETURN_NOT_OK(advance());
        ++tuples;
      }
      if (apply_finish && combiner.finish) combiner.finish(&acc);
      const Slice out[2] = {Slice(group_key), Slice(acc)};
      PREGELIX_RETURN_NOT_OK(emit(out));
    }
  } else {
    std::vector<Slice> fields;
    while (tree.winner() >= 0) {
      TupleRunReader& c = tree.winner_cursor();
      fields.clear();
      for (int f = 0; f < c.field_count(); ++f) {
        fields.push_back(c.field(f));
      }
      PREGELIX_RETURN_NOT_OK(emit(fields));
      PREGELIX_RETURN_NOT_OK(advance());
      ++tuples;
    }
  }
  if (metrics != nullptr) metrics->AddCpuOps(tuples);
  return Status::OK();
}

/// One merge pass: opens `paths`, merges them into `emit` and deletes them
/// (runs are single-use).
Status MergePass(const SortConfig& config, const GroupCombiner& combiner,
                 std::span<const std::string> paths, bool apply_finish,
                 const TupleEmitFn& emit) {
  std::vector<std::unique_ptr<TupleRunReader>> cursors;
  for (const std::string& path : paths) {
    cursors.push_back(std::make_unique<TupleRunReader>(
        path, config.field_count, config.metrics));
    PREGELIX_RETURN_NOT_OK(cursors.back()->Init());
  }
  PREGELIX_RETURN_NOT_OK(MergeCursors(cursors, config.key_field, combiner,
                                      apply_finish, config.metrics, emit));
  cursors.clear();
  for (const std::string& path : paths) DeleteFileIfExists(path);
  return Status::OK();
}

}  // namespace

namespace internal_sort {

Status MergeRuns(const SortConfig& config, const GroupCombiner& combiner,
                 std::vector<std::string> run_paths, const TupleEmitFn& emit) {
  TraceSpan span(config.tracer, "sort.merge", trace_cat::kDataflow,
                 config.worker);
  span.AddArg("runs", static_cast<int64_t>(run_paths.size()));
  span.AddArg("fanin", config.merge_fanin);
  const size_t fanin = static_cast<size_t>(config.merge_fanin);
  uint64_t pass_id = 0;
  // The merge owns every run it was handed and every intermediate output.
  // A pass deletes its inputs once it has read them all; on an error the
  // current generation and the outputs made so far, the failed pass's
  // partial one included, are deleted here, so no exit path leaves a run.
  std::vector<std::string> next_paths;
  auto delete_all = [&](Status s) {
    for (const std::string& path : run_paths) DeleteFileIfExists(path);
    for (const std::string& path : next_paths) DeleteFileIfExists(path);
    return s;
  };
  // Intermediate passes until the fan-in fits.
  while (run_paths.size() > fanin) {
    for (size_t start = 0; start < run_paths.size(); start += fanin) {
      const std::span<const std::string> group =
          std::span<const std::string>(run_paths).subspan(
              start, std::min(fanin, run_paths.size() - start));
      next_paths.push_back(config.scratch_prefix + "-merge-" +
                           std::to_string(pass_id++));
      Status s;
      {
        TupleRunWriter writer(next_paths.back(), config.frame_size,
                              config.field_count, config.metrics);
        s = MergePass(config, combiner, group, /*apply_finish=*/false,
                      [&](std::span<const Slice> fields) {
                        return writer.Append(fields);
                      });
        if (s.ok()) s = writer.Finish();
      }
      if (!s.ok()) return delete_all(std::move(s));
    }
    run_paths = std::move(next_paths);
    next_paths.clear();
  }
  Status s =
      MergePass(config, combiner, run_paths, /*apply_finish=*/true, emit);
  return s.ok() ? s : delete_all(std::move(s));
}

}  // namespace internal_sort

// ---------------------------------------------------------------------------
// ExternalSortGrouper

ExternalSortGrouper::ExternalSortGrouper(const SortConfig& config,
                                         GroupCombiner combiner)
    : config_(config), combiner_(std::move(combiner)) {
  if (combiner_.valid()) {
    PREGELIX_CHECK(config_.field_count == 2 && config_.key_field == 0)
        << "combining group-by operates on (key, payload) tuples";
  }
  pool_.reserve(std::min<size_t>(config_.memory_budget_bytes, 1u << 20));
}

ExternalSortGrouper::~ExternalSortGrouper() {
  // Drop any unconsumed runs.
  for (const std::string& path : run_paths_) {
    DeleteFileIfExists(path);
  }
}

size_t ExternalSortGrouper::BatchBytes() const {
  return pool_.size() + entries_.capacity() * sizeof(Entry);
}

Status ExternalSortGrouper::Add(std::span<const Slice> fields) {
  PREGELIX_CHECK(!finished_);
  const int n = static_cast<int>(fields.size());
  size_t data = 0;
  for (const Slice& f : fields) data += f.size();
  const size_t tuple_size = 4u * n + data;
  if (!entries_.empty() &&
      BatchBytes() + tuple_size > config_.memory_budget_bytes) {
    PREGELIX_RETURN_NOT_OK(SpillBatch());
  }
  // Encode the tuple straight into the pool — no temporary string.
  const size_t offset = pool_.size();
  char buf[4];
  uint32_t end = 0;
  for (const Slice& f : fields) {
    end += static_cast<uint32_t>(f.size());
    EncodeFixed32(buf, end);
    pool_.append(buf, 4);
  }
  for (const Slice& f : fields) {
    pool_.append(f.data(), f.size());
  }
  entries_.push_back(Entry{NormalizedKeyPrefix(fields[config_.key_field]),
                           static_cast<uint32_t>(offset),
                           static_cast<uint32_t>(tuple_size)});
  const int64_t key_size =
      static_cast<int64_t>(fields[config_.key_field].size());
  if (batch_key_size_ == -1) {
    batch_key_size_ = key_size <= 8 ? key_size : -2;
  } else if (batch_key_size_ != key_size) {
    batch_key_size_ = -2;
  }
  ++pending_ops_;
  return Status::OK();
}

Slice ExternalSortGrouper::EntryKey(const Entry& e) const {
  return TupleFieldFromRaw(Slice(pool_.data() + e.offset, e.size),
                           config_.field_count, config_.key_field);
}

void ExternalSortGrouper::SortBatch() {
  ScopedTimeCategory sort(TimeCategory::kSort);
  // The cached normalized prefixes settle the vast majority of comparisons
  // with one integer compare; a tie implies the first 8 key bytes match and
  // only then is the key re-decoded from the pool. Same ordering as a full
  // key compare, so the resulting permutation is unchanged.
  //
  // When every key in the batch has one width ≤ 8 bytes (the common case:
  // fixed-width vertex ids), the prefix is injective — a norm tie IS a key
  // match — so the sort and the group-equality tests run over the entry
  // strip with pure integer comparisons, no pool indirection in the inner
  // loop.
  if (batch_key_size_ >= 0) {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.norm < b.norm; });
  } else {
    std::sort(entries_.begin(), entries_.end(),
              [this](const Entry& a, const Entry& b) {
                if (a.norm != b.norm) return a.norm < b.norm;
                return EntryKey(a).compare(EntryKey(b)) < 0;
              });
  }
  if (config_.metrics != nullptr) {
    config_.metrics->AddCpuOps(entries_.size());
  }
}

Status ExternalSortGrouper::DrainBatchSorted(const TupleEmitFn& fn) {
  SortBatch();
  // Combine/emit drain: group_by when combining, sort otherwise (the drain
  // is then just the tail of the sort kernel).
  ScopedTimeCategory drain(combiner_.valid() ? TimeCategory::kGroupBy
                                             : TimeCategory::kSort);
  const int field_count = config_.field_count;
  const bool norm_decides = batch_key_size_ >= 0;
  std::vector<Slice> fields;
  if (combiner_.valid()) {
    size_t i = 0;
    while (i < entries_.size()) {
      const Slice key = EntryKey(entries_[i]);
      Slice payload = TupleFieldFromRaw(
          Slice(pool_.data() + entries_[i].offset, entries_[i].size), 2, 1);
      combiner_.init(payload, &acc_);
      size_t j = i + 1;
      while (j < entries_.size() && entries_[j].norm == entries_[i].norm &&
             (norm_decides || EntryKey(entries_[j]) == key)) {
        combiner_.step(
            TupleFieldFromRaw(
                Slice(pool_.data() + entries_[j].offset, entries_[j].size), 2,
                1),
            &acc_);
        ++j;
      }
      const Slice out[2] = {key, Slice(acc_)};
      PREGELIX_RETURN_NOT_OK(fn(out));
      i = j;
    }
  } else {
    for (const Entry& e : entries_) {
      const Slice tuple(pool_.data() + e.offset, e.size);
      fields.clear();
      for (int f = 0; f < field_count; ++f) {
        fields.push_back(TupleFieldFromRaw(tuple, field_count, f));
      }
      PREGELIX_RETURN_NOT_OK(fn(fields));
    }
  }
  entries_.clear();
  pool_.clear();
  batch_key_size_ = -1;
  return Status::OK();
}

Status ExternalSortGrouper::SpillBatch() {
  ChargeOps(config_.metrics, &pending_ops_);
  TraceSpan span(config_.tracer, "sort.run_generation", trace_cat::kDataflow,
                 config_.worker);
  span.AddArg("tuples", static_cast<int64_t>(entries_.size()));
  span.AddArg("run", static_cast<int64_t>(next_run_id_));
  if (config_.profile != nullptr) {
    config_.profile->UpdateMemHwm(BatchBytes());
  }
  TupleRunWriter writer(
      config_.scratch_prefix + "-run-" + std::to_string(next_run_id_++),
      config_.frame_size, config_.field_count, config_.metrics);
  PREGELIX_RETURN_NOT_OK(DrainBatchSorted(
      [&](std::span<const Slice> fields) { return writer.Append(fields); }));
  PREGELIX_RETURN_NOT_OK(writer.Finish());
  if (config_.profile != nullptr) config_.profile->AddSpill(writer.bytes());
  run_paths_.push_back(writer.path());
  return Status::OK();
}

Status ExternalSortGrouper::Finish(const TupleEmitFn& emit) {
  PREGELIX_CHECK(!finished_);
  finished_ = true;
  ChargeOps(config_.metrics, &pending_ops_);
  if (config_.profile != nullptr) {
    config_.profile->UpdateMemHwm(BatchBytes());
  }
  if (run_paths_.empty()) {
    // Fully in-memory: a single sorted drain, applying the final transform.
    if (combiner_.valid() && combiner_.finish) {
      std::string finished_acc;
      return DrainBatchSorted([&](std::span<const Slice> fields) {
        finished_acc.assign(fields[1].data(), fields[1].size());
        combiner_.finish(&finished_acc);
        const Slice out[2] = {fields[0], Slice(finished_acc)};
        return emit(out);
      });
    }
    return DrainBatchSorted(emit);
  }
  if (!entries_.empty()) {
    PREGELIX_RETURN_NOT_OK(SpillBatch());
  }
  std::vector<std::string> runs = std::move(run_paths_);
  run_paths_.clear();
  return internal_sort::MergeRuns(config_, combiner_, std::move(runs), emit);
}

// ---------------------------------------------------------------------------
// HashSortGrouper

HashSortGrouper::HashSortGrouper(const SortConfig& config,
                                 GroupCombiner combiner)
    : config_(config), combiner_(std::move(combiner)) {
  PREGELIX_CHECK(combiner_.valid())
      << "HashSort group-by requires combine hooks";
  PREGELIX_CHECK(config_.field_count == 2 && config_.key_field == 0);
}

HashSortGrouper::~HashSortGrouper() {
  for (const std::string& path : run_paths_) {
    DeleteFileIfExists(path);
  }
}

size_t HashSortGrouper::TableBytes() const {
  return key_arena_.capacity() + groups_.capacity() * sizeof(Group) +
         slots_.capacity() * sizeof(uint32_t) +
         static_cast<size_t>(acc_bytes_ > 0 ? acc_bytes_ : 0);
}

void HashSortGrouper::GrowSlots() {
  const size_t n = slots_.empty() ? 64 : slots_.size() * 2;
  slots_.assign(n, 0);
  const size_t mask = n - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t s = groups_[g].hash & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(g + 1);
  }
}

Status HashSortGrouper::Add(std::span<const Slice> fields) {
  PREGELIX_CHECK(!finished_);
  const Slice key = fields[0];
  const Slice payload = fields[1];
  if (slots_.empty()) GrowSlots();
  const uint64_t h = SliceHash{}(key);
  const size_t mask = slots_.size() - 1;
  size_t s = h & mask;
  while (slots_[s] != 0) {
    Group& g = groups_[slots_[s] - 1];
    if (g.hash == h && GroupKey(g) == key) {
      // Hit path: combiner step into the resident accumulator; no lookup
      // key is materialized and nothing is allocated here. The size delta
      // is signed — a step may shrink the accumulator (e.g. a min-combiner
      // adopting a shorter payload).
      const int64_t before = static_cast<int64_t>(g.acc.size());
      combiner_.step(payload, &g.acc);
      acc_bytes_ += static_cast<int64_t>(g.acc.size()) - before;
      ++pending_ops_;
      return Status::OK();
    }
    s = (s + 1) & mask;
  }
  // Miss: append the key to the arena and open a new group in slot s.
  Group g;
  g.hash = h;
  g.norm = NormalizedKeyPrefix(key);
  g.key_offset = static_cast<uint32_t>(key_arena_.size());
  g.key_size = static_cast<uint32_t>(key.size());
  combiner_.init(payload, &g.acc);
  acc_bytes_ += static_cast<int64_t>(g.acc.size());
  key_arena_.append(key.data(), key.size());
  groups_.push_back(std::move(g));
  slots_[s] = static_cast<uint32_t>(groups_.size());
  const int64_t key_size = static_cast<int64_t>(key.size());
  if (uniform_key_size_ == -1) {
    uniform_key_size_ = key_size <= 8 ? key_size : -2;
  } else if (uniform_key_size_ != key_size) {
    uniform_key_size_ = -2;
  }
  if (groups_.size() * 4 >= slots_.size() * 3) GrowSlots();
  ++pending_ops_;
  if (TableBytes() > config_.memory_budget_bytes) {
    PREGELIX_RETURN_NOT_OK(SpillTable());
  }
  return Status::OK();
}

void HashSortGrouper::SortedOrder(std::vector<uint32_t>* order) const {
  ScopedTimeCategory sort(TimeCategory::kSort);
  order->resize(groups_.size());
  if (uniform_key_size_ >= 0) {
    // One key width ≤ 8 bytes across the (deduped) table means the cached
    // norms are pairwise distinct, so the order is fully decided by them.
    // Sort a contiguous (norm, index) strip with the trivial integer
    // comparator — no Group/arena indirection in the inner loop.
    std::vector<std::pair<uint64_t, uint32_t>> strip(groups_.size());
    for (size_t g = 0; g < groups_.size(); ++g) {
      strip[g] = {groups_[g].norm, static_cast<uint32_t>(g)};
    }
    std::sort(strip.begin(), strip.end());
    for (size_t i = 0; i < strip.size(); ++i) (*order)[i] = strip[i].second;
    return;
  }
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    if (groups_[a].norm != groups_[b].norm) {
      return groups_[a].norm < groups_[b].norm;
    }
    return GroupKey(groups_[a]).compare(GroupKey(groups_[b])) < 0;
  });
}

Status HashSortGrouper::SpillTable() {
  ChargeOps(config_.metrics, &pending_ops_);
  if (groups_.empty()) return Status::OK();
  TraceSpan span(config_.tracer, "hashsort.run_generation",
                 trace_cat::kDataflow, config_.worker);
  span.AddArg("groups", static_cast<int64_t>(groups_.size()));
  span.AddArg("run", static_cast<int64_t>(next_run_id_));
  if (config_.profile != nullptr) {
    config_.profile->UpdateMemHwm(TableBytes());
  }
  std::vector<uint32_t> order;
  SortedOrder(&order);
  if (config_.metrics != nullptr) {
    config_.metrics->AddCpuOps(order.size());
  }
  TupleRunWriter writer(
      config_.scratch_prefix + "-hrun-" + std::to_string(next_run_id_++),
      config_.frame_size, config_.field_count, config_.metrics);
  for (uint32_t g : order) {
    const Slice out[2] = {GroupKey(groups_[g]), Slice(groups_[g].acc)};
    PREGELIX_RETURN_NOT_OK(writer.Append(out));
  }
  PREGELIX_RETURN_NOT_OK(writer.Finish());
  if (config_.profile != nullptr) config_.profile->AddSpill(writer.bytes());
  run_paths_.push_back(writer.path());
  // Spilling means the table outgrew the budget. TableBytes() charges
  // capacities, so the memory must actually be released here — a cleared
  // table that keeps its high-water capacity would sit at the budget
  // ceiling forever and degrade into spilling a one-group run per Add.
  groups_.clear();
  groups_.shrink_to_fit();
  key_arena_.clear();
  key_arena_.shrink_to_fit();
  slots_.clear();
  slots_.shrink_to_fit();
  acc_bytes_ = 0;
  uniform_key_size_ = -1;
  return Status::OK();
}

Status HashSortGrouper::Finish(const TupleEmitFn& emit) {
  PREGELIX_CHECK(!finished_);
  finished_ = true;
  ChargeOps(config_.metrics, &pending_ops_);
  if (config_.profile != nullptr) {
    config_.profile->UpdateMemHwm(TableBytes());
  }
  if (run_paths_.empty()) {
    ScopedTimeCategory group_by(TimeCategory::kGroupBy);
    std::vector<uint32_t> order;
    SortedOrder(&order);
    std::string acc;
    for (uint32_t g : order) {
      acc.assign(groups_[g].acc.data(), groups_[g].acc.size());
      if (combiner_.finish) combiner_.finish(&acc);
      const Slice out[2] = {GroupKey(groups_[g]), Slice(acc)};
      PREGELIX_RETURN_NOT_OK(emit(out));
    }
    groups_.clear();
    key_arena_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    acc_bytes_ = 0;
    uniform_key_size_ = -1;
    return Status::OK();
  }
  PREGELIX_RETURN_NOT_OK(SpillTable());
  std::vector<std::string> runs = std::move(run_paths_);
  run_paths_.clear();
  return internal_sort::MergeRuns(config_, combiner_, std::move(runs), emit);
}

// ---------------------------------------------------------------------------
// DenseGrouper

DenseGrouper::DenseGrouper(const SortConfig& config, GroupCombiner combiner,
                           int64_t lo, uint64_t slots, uint64_t stride)
    : config_(config),
      combiner_(std::move(combiner)),
      lo_(lo),
      slots_(slots),
      stride_(stride),
      end_(slots == 0 ? 0 : (slots - 1) * stride + 1),
      width_(combiner_.width),
      // Uninitialized: a slot is read only after its presence bit is set.
      acc_(std::make_unique_for_overwrite<char[]>(slots * combiner_.width)),
      present_((slots + 63) / 64, 0) {
  PREGELIX_CHECK(combiner_.valid() && width_ > 0 && combiner_.fold)
      << "dense group-by requires a fixed-width combiner";
  PREGELIX_CHECK(config_.field_count == 2 && config_.key_field == 0);
  // The last slot's vid, lo + (slots - 1)·stride, must not pass INT64_MAX:
  // then no offset wraps and the slots go out in key order.
  const uint64_t room_above_lo =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) -
      static_cast<uint64_t>(lo_);
  PREGELIX_CHECK(stride_ >= 1 &&
                 (slots_ == 0 || slots_ - 1 <= room_above_lo / stride_));
}

Status DenseGrouper::Add(std::span<const Slice> fields) {
  PREGELIX_CHECK(!finished_);
  const Slice key = fields[0];
  const Slice payload = fields[1];
  if (key.size() != 8 || payload.size() != width_) {
    return Status::InvalidArgument(
        "dense group-by takes 8-byte keys and " + std::to_string(width_) +
        "-byte payloads, got " + std::to_string(key.size()) + " and " +
        std::to_string(payload.size()));
  }
  return AddVid(DecodeOrderedI64(key.data()), payload.data());
}

Status DenseGrouper::AddOverflow(int64_t vid, const char* payload) {
  PREGELIX_CHECK(!finished_);
  if (overflow_ == nullptr) {
    SortConfig overflow = config_;
    const uint64_t used = ArrayBytes(slots_, width_);
    overflow.memory_budget_bytes =
        config_.memory_budget_bytes > used + config_.frame_size
            ? config_.memory_budget_bytes - used
            : config_.frame_size;
    overflow_ = std::make_unique<ExternalSortGrouper>(overflow, combiner_);
  }
  char key[8];
  EncodeOrderedI64(key, vid);
  const Slice fields[2] = {Slice(key, sizeof(key)), Slice(payload, width_)};
  return overflow_->Add(fields);
}

Status DenseGrouper::Misrouted(int64_t vid) const {
  return Status::Internal(
      "dense group-by got vid " + std::to_string(vid) +
      ", inside its range but not of the residue of its first vid " +
      std::to_string(lo_) + " mod " + std::to_string(stride_) +
      ": the tuple was routed to the wrong partition");
}

Status DenseGrouper::EmitSlots(const TupleEmitFn& emit) {
  ScopedTimeCategory group_by(TimeCategory::kGroupBy);
  char key[8] = {};
  std::string finished_acc;
  for (size_t w = 0; w < present_.size(); ++w) {
    for (uint64_t bits = present_[w]; bits != 0; bits &= bits - 1) {
      const uint64_t slot = w * 64 + std::countr_zero(bits);
      EncodeOrderedI64(key, static_cast<int64_t>(static_cast<uint64_t>(lo_) +
                                                 slot * stride_));
      Slice payload(acc_.get() + slot * width_, width_);
      if (combiner_.finish) {
        finished_acc.assign(payload.data(), payload.size());
        combiner_.finish(&finished_acc);
        payload = Slice(finished_acc);
      }
      const Slice out[2] = {Slice(key, sizeof(key)), payload};
      PREGELIX_RETURN_NOT_OK(emit(out));
    }
  }
  return Status::OK();
}

Status DenseGrouper::Finish(const TupleEmitFn& emit) {
  PREGELIX_CHECK(!finished_);
  finished_ = true;
  ChargeOps(config_.metrics, &pending_ops_);
  if (config_.profile != nullptr) {
    config_.profile->UpdateMemHwm(ArrayBytes(slots_, width_));
  }
  if (overflow_ == nullptr) return EmitSlots(emit);
  // The overflow holds only keys outside the range: the slots go out just
  // before its first key above the range.
  bool slots_emitted = false;
  PREGELIX_RETURN_NOT_OK(
      overflow_->Finish([&](std::span<const Slice> fields) -> Status {
        if (!slots_emitted && DecodeOrderedI64(fields[0].data()) >= lo_) {
          slots_emitted = true;
          PREGELIX_RETURN_NOT_OK(EmitSlots(emit));
        }
        return emit(fields);
      }));
  return slots_emitted ? Status::OK() : EmitSlots(emit);
}

// ---------------------------------------------------------------------------
// PreclusteredGrouper

PreclusteredGrouper::PreclusteredGrouper(GroupCombiner combiner,
                                         WorkerMetrics* metrics)
    : combiner_(std::move(combiner)), metrics_(metrics) {
  PREGELIX_CHECK(combiner_.valid());
}

Status PreclusteredGrouper::Add(const Slice& key, const Slice& payload,
                                const TupleEmitFn& emit) {
  ++pending_ops_;
  if (has_group_ && key == Slice(current_key_)) {
    combiner_.step(payload, &acc_);
    return Status::OK();
  }
  PREGELIX_CHECK(!has_group_ || Slice(current_key_).compare(key) < 0)
      << "preclustered group-by received unsorted input";
  PREGELIX_RETURN_NOT_OK(EmitCurrent(emit));
  current_key_.assign(key.data(), key.size());
  combiner_.init(payload, &acc_);
  has_group_ = true;
  return Status::OK();
}

Status PreclusteredGrouper::EmitCurrent(const TupleEmitFn& emit) {
  if (!has_group_) return Status::OK();
  if (combiner_.finish) combiner_.finish(&acc_);
  const Slice out[2] = {Slice(current_key_), Slice(acc_)};
  return emit(out);
}

Status PreclusteredGrouper::Finish(const TupleEmitFn& emit) {
  ChargeOps(metrics_, &pending_ops_);
  Status s = EmitCurrent(emit);
  has_group_ = false;
  return s;
}

}  // namespace pregelix
