#include "dataflow/ops/sort.h"

#include <algorithm>
#include <numeric>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/time_ledger.h"
#include "dataflow/operator.h"
#include "dataflow/plan_profile.h"
#include "io/file.h"

namespace pregelix {

namespace {

/// Sequential cursor over one run file.
class RunCursor {
 public:
  RunCursor(std::string path, int field_count, WorkerMetrics* metrics)
      : path_(std::move(path)), accessor_(field_count), metrics_(metrics) {}

  Status Init() {
    PREGELIX_RETURN_NOT_OK(RunFileReader::Open(path_, metrics_, &reader_));
    return Advance();
  }

  bool Valid() const { return valid_; }

  Status Next() {
    ++index_;
    if (index_ >= accessor_.tuple_count()) {
      return Advance();
    }
    return Status::OK();
  }

  Slice field(int f) const { return accessor_.field(index_, f); }
  int field_count() const { return accessor_.field_count(); }

  /// Removes the backing file (runs are single-use).
  void Discard() {
    reader_.reset();
    DeleteFileIfExists(path_);
  }

 private:
  Status Advance() {
    for (;;) {
      Status s = reader_->NextBlock(&frame_);
      if (s.IsNotFound()) {
        valid_ = false;
        return Status::OK();
      }
      PREGELIX_RETURN_NOT_OK(s);
      accessor_.Reset(Slice(frame_));
      if (accessor_.tuple_count() > 0) {
        index_ = 0;
        valid_ = true;
        return Status::OK();
      }
    }
  }

  std::string path_;
  std::unique_ptr<RunFileReader> reader_;
  std::string frame_;
  FrameTupleAccessor accessor_;
  int index_ = 0;
  bool valid_ = false;
  WorkerMetrics* metrics_;
};

/// Tournament loser tree over the run cursors, keyed on the 8-byte
/// normalized key prefix (see NormalizedKeyPrefix in slice.h). Selecting
/// the next tuple of a k-way merge is O(log k) integer comparisons along
/// one root path instead of the O(k) full-key scan it replaces; the full
/// Slice compare runs only on a prefix tie.
///
/// Ordering invariant: a leaf beats another iff its key is strictly
/// smaller, or the keys are equal and its cursor index is lower. The index
/// tie-break reproduces the emission order of the previous linear scan
/// (lowest cursor wins among equal keys), which the differential suite
/// pins down as byte-identical output.
///
/// Layout: leaves are the k cursors padded to the next power of two `cap_`
/// with exhausted sentinels (-1, beaten by everything); tree_[1..cap_-1]
/// store the *loser* of the match played at that node, and the overall
/// winner is kept in winner_. Exhausting a cursor just turns its leaf into
/// a sentinel; no removal is needed.
class LoserTree {
 public:
  LoserTree(std::vector<std::unique_ptr<RunCursor>>& cursors, int key_field)
      : cursors_(cursors), key_field_(key_field) {}

  void Init() {
    const int k = static_cast<int>(cursors_.size());
    cap_ = 1;
    while (cap_ < k) cap_ <<= 1;
    norm_.assign(k, 0);
    for (int i = 0; i < k; ++i) Refresh(i);
    tree_.assign(cap_, -1);
    // One bottom-up replay: winners[p] is the winner of the subtree at p.
    std::vector<int> winners(2 * cap_, -1);
    for (int i = 0; i < k; ++i) {
      winners[cap_ + i] = cursors_[i]->Valid() ? i : -1;
    }
    for (int p = cap_ - 1; p >= 1; --p) {
      const int a = winners[2 * p];
      const int b = winners[2 * p + 1];
      if (Beats(b, a)) {
        winners[p] = b;
        tree_[p] = a;
      } else {
        winners[p] = a;
        tree_[p] = b;
      }
    }
    winner_ = winners[1];  // with cap_ == 1 this is leaf 0 itself
  }

  /// Cursor index holding the smallest key; -1 once every run is drained.
  int winner() const { return winner_; }
  /// Cached normalized prefix of the winner's key.
  uint64_t winner_norm() const { return norm_[winner_]; }

  /// Consumes the winner's current tuple and replays its root path.
  Status AdvanceWinner() {
    const int i = winner_;
    PREGELIX_RETURN_NOT_OK(fault::MaybeFail("sort.merge.refill"));
    PREGELIX_RETURN_NOT_OK(cursors_[i]->Next());
    Refresh(i);
    int contender = cursors_[i]->Valid() ? i : -1;
    for (int node = (cap_ + i) / 2; node >= 1; node /= 2) {
      if (Beats(tree_[node], contender)) std::swap(tree_[node], contender);
    }
    winner_ = contender;
    return Status::OK();
  }

 private:
  void Refresh(int i) {
    if (cursors_[i]->Valid()) {
      norm_[i] = NormalizedKeyPrefix(cursors_[i]->field(key_field_));
    }
  }

  /// Strictly-before in merge order; -1 marks an exhausted leaf.
  bool Beats(int a, int b) const {
    if (a < 0) return false;
    if (b < 0) return true;
    if (norm_[a] != norm_[b]) return norm_[a] < norm_[b];
    const int c = cursors_[a]->field(key_field_).compare(
        cursors_[b]->field(key_field_));
    if (c != 0) return c < 0;
    return a < b;
  }

  std::vector<std::unique_ptr<RunCursor>>& cursors_;
  const int key_field_;
  int cap_ = 1;
  std::vector<int> tree_;
  std::vector<uint64_t> norm_;
  int winner_ = -1;
};

/// Merges the given cursors in key order, optionally combining equal keys,
/// and feeds `emit`. `apply_finish` controls whether the combiner's final
/// transform runs (only on the last pass).
Status MergeCursors(std::vector<std::unique_ptr<RunCursor>>& cursors,
                    int key_field, const GroupCombiner& combiner,
                    bool apply_finish, WorkerMetrics* metrics,
                    const TupleEmitFn& emit) {
  // Time ledger: the k-way merge (and its combine fold) is the merge
  // phase; nested I/O scopes in the run-file/file layers suspend it.
  ScopedTimeCategory merge(TimeCategory::kMerge);
  uint64_t tuples = 0;
  LoserTree tree(cursors, key_field);
  tree.Init();
  if (combiner.valid()) {
    // Group-key and accumulator buffers persist across groups: assignment
    // reuses their capacity, so steady state allocates nothing per group.
    std::string group_key;
    std::string acc;
    while (tree.winner() >= 0) {
      RunCursor& w = *cursors[tree.winner()];
      const uint64_t group_norm = tree.winner_norm();
      const Slice first_key = w.field(0);
      group_key.assign(first_key.data(), first_key.size());
      combiner.init(w.field(1), &acc);
      PREGELIX_RETURN_NOT_OK(tree.AdvanceWinner());
      ++tuples;
      // Fold in every other tuple with the same key. The tree pops equal
      // keys lowest-cursor-first and drains each cursor's equal-key prefix
      // before moving on, matching the previous cursor-order fold.
      while (tree.winner() >= 0 && tree.winner_norm() == group_norm &&
             cursors[tree.winner()]->field(0) == Slice(group_key)) {
        combiner.step(cursors[tree.winner()]->field(1), &acc);
        PREGELIX_RETURN_NOT_OK(tree.AdvanceWinner());
        ++tuples;
      }
      if (apply_finish && combiner.finish) combiner.finish(&acc);
      const Slice out[2] = {Slice(group_key), Slice(acc)};
      PREGELIX_RETURN_NOT_OK(emit(out));
    }
  } else {
    std::vector<Slice> fields;
    while (tree.winner() >= 0) {
      RunCursor& c = *cursors[tree.winner()];
      fields.clear();
      for (int f = 0; f < c.field_count(); ++f) {
        fields.push_back(c.field(f));
      }
      PREGELIX_RETURN_NOT_OK(emit(fields));
      PREGELIX_RETURN_NOT_OK(tree.AdvanceWinner());
      ++tuples;
    }
  }
  if (metrics != nullptr) metrics->AddCpuOps(tuples);
  return Status::OK();
}

}  // namespace

namespace internal_sort {

// ---------------------------------------------------------------------------
// RunWriter

RunWriter::RunWriter(const SortConfig& config, const std::string& path)
    : appender_(config.frame_size, config.field_count), path_(path) {
  open_status_ = RunFileWriter::Open(path, config.metrics, &file_);
}

Status RunWriter::Append(std::span<const Slice> fields) {
  PREGELIX_RETURN_NOT_OK(open_status_);
  if (!appender_.Append(fields)) {
    const Slice block = appender_.FinalizeView();
    bytes_written_ += block.size();
    PREGELIX_RETURN_NOT_OK(file_->AppendBlock(block));
    appender_.Reset();
    PREGELIX_CHECK(appender_.Append(fields));
  }
  return Status::OK();
}

Status RunWriter::Finish() {
  PREGELIX_RETURN_NOT_OK(open_status_);
  if (!appender_.empty()) {
    const Slice block = appender_.FinalizeView();
    bytes_written_ += block.size();
    PREGELIX_RETURN_NOT_OK(file_->AppendBlock(block));
    appender_.Reset();
  }
  return file_->Finish();
}

// ---------------------------------------------------------------------------
// MergeRuns

Status MergeRuns(const SortConfig& config, const GroupCombiner& combiner,
                 std::vector<std::string> run_paths, const TupleEmitFn& emit) {
  TraceSpan span(config.tracer, "sort.merge", trace_cat::kDataflow,
                 config.worker, config.metrics);
  span.AddArg("runs", static_cast<int64_t>(run_paths.size()));
  span.AddArg("fanin", config.merge_fanin);
  uint64_t pass_id = 0;
  // Intermediate passes until the fan-in fits.
  while (static_cast<int>(run_paths.size()) > config.merge_fanin) {
    std::vector<std::string> next_paths;
    for (size_t start = 0; start < run_paths.size();
         start += config.merge_fanin) {
      const size_t end =
          std::min(run_paths.size(), start + config.merge_fanin);
      std::vector<std::unique_ptr<RunCursor>> cursors;
      for (size_t i = start; i < end; ++i) {
        cursors.push_back(std::make_unique<RunCursor>(
            run_paths[i], config.field_count, config.metrics));
        PREGELIX_RETURN_NOT_OK(cursors.back()->Init());
      }
      const std::string out_path = config.scratch_prefix + "-merge-" +
                                   std::to_string(pass_id++) ;
      RunWriter writer(config, out_path);
      PREGELIX_RETURN_NOT_OK(MergeCursors(
          cursors, config.key_field, combiner, /*apply_finish=*/false,
          config.metrics,
          [&](std::span<const Slice> fields) { return writer.Append(fields); }));
      PREGELIX_RETURN_NOT_OK(writer.Finish());
      for (auto& cursor : cursors) cursor->Discard();
      next_paths.push_back(out_path);
    }
    run_paths = std::move(next_paths);
  }
  // Final pass.
  std::vector<std::unique_ptr<RunCursor>> cursors;
  for (const std::string& path : run_paths) {
    cursors.push_back(std::make_unique<RunCursor>(path, config.field_count,
                                                  config.metrics));
    PREGELIX_RETURN_NOT_OK(cursors.back()->Init());
  }
  PREGELIX_RETURN_NOT_OK(MergeCursors(cursors, config.key_field, combiner,
                                      /*apply_finish=*/true, config.metrics,
                                      emit));
  for (auto& cursor : cursors) cursor->Discard();
  return Status::OK();
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
  if (config_.metrics != nullptr) config_.metrics->AddCpuOps(1);
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
  TraceSpan span(config_.tracer, "sort.run_generation", trace_cat::kDataflow,
                 config_.worker, config_.metrics);
  span.AddArg("tuples", static_cast<int64_t>(entries_.size()));
  span.AddArg("run", static_cast<int64_t>(next_run_id_));
  if (config_.profile != nullptr) {
    config_.profile->UpdateMemHwm(BatchBytes());
  }
  const std::string path =
      config_.scratch_prefix + "-run-" + std::to_string(next_run_id_++);
  internal_sort::RunWriter writer(config_, path);
  PREGELIX_RETURN_NOT_OK(DrainBatchSorted(
      [&](std::span<const Slice> fields) { return writer.Append(fields); }));
  PREGELIX_RETURN_NOT_OK(writer.Finish());
  if (config_.profile != nullptr) {
    config_.profile->AddSpill(writer.bytes_written());
  }
  run_paths_.push_back(path);
  return Status::OK();
}

Status ExternalSortGrouper::Finish(const TupleEmitFn& emit) {
  PREGELIX_CHECK(!finished_);
  finished_ = true;
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
      if (config_.metrics != nullptr) config_.metrics->AddCpuOps(1);
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
  if (config_.metrics != nullptr) config_.metrics->AddCpuOps(1);
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
  if (groups_.empty()) return Status::OK();
  TraceSpan span(config_.tracer, "hashsort.run_generation",
                 trace_cat::kDataflow, config_.worker, config_.metrics);
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
  const std::string path =
      config_.scratch_prefix + "-hrun-" + std::to_string(next_run_id_++);
  internal_sort::RunWriter writer(config_, path);
  for (uint32_t g : order) {
    const Slice out[2] = {GroupKey(groups_[g]), Slice(groups_[g].acc)};
    PREGELIX_RETURN_NOT_OK(writer.Append(out));
  }
  PREGELIX_RETURN_NOT_OK(writer.Finish());
  if (config_.profile != nullptr) {
    config_.profile->AddSpill(writer.bytes_written());
  }
  run_paths_.push_back(path);
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
// PreclusteredGrouper

PreclusteredGrouper::PreclusteredGrouper(GroupCombiner combiner,
                                         WorkerMetrics* metrics)
    : combiner_(std::move(combiner)), metrics_(metrics) {
  PREGELIX_CHECK(combiner_.valid());
}

Status PreclusteredGrouper::Add(const Slice& key, const Slice& payload,
                                const TupleEmitFn& emit) {
  if (metrics_ != nullptr) metrics_->AddCpuOps(1);
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
  Status s = EmitCurrent(emit);
  has_group_ = false;
  return s;
}

}  // namespace pregelix
