#include "pregel/plans.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "dataflow/frame.h"
#include "dataflow/ops/sort.h"
#include "dataflow/plan_profile.h"
#include "dataflow/tuple_run.h"
#include "graph/text_io.h"
#include "io/file.h"
#include "pregel/vertex_format.h"
#include "storage/btree.h"
#include "storage/lsm_btree.h"

namespace pregelix {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers

/// Creates (or re-creates) the Vertex index of partition p per the job's
/// admission-resolved storage choice (ctx->current_storage; never kAuto).
/// Existing index files are removed first.
Status MakeVertexIndex(JobRuntimeContext* ctx, int p,
                       std::unique_ptr<OrderedIndex>* out) {
  const std::string dir = ctx->PartitionDir(p);
  PREGELIX_CHECK(EnsureDir(dir));
  const int worker = ctx->cluster->worker_of_partition(p);
  BufferCache& cache = ctx->cluster->cache(worker);
  if (ctx->current_storage == VertexStorage::kBTree) {
    const std::string path = dir + "/vertex.btree";
    DeleteFileIfExists(path);
    std::unique_ptr<BTree> tree;
    PREGELIX_RETURN_NOT_OK(BTree::Open(&cache, path, &tree));
    *out = std::move(tree);
  } else {
    const std::string lsm_dir = dir + "/vertex-lsm";
    RemoveAll(lsm_dir);
    std::unique_ptr<LsmBTree> lsm;
    // The in-memory component budget follows the group-by budget scale.
    PREGELIX_RETURN_NOT_OK(LsmBTree::Open(
        &cache, lsm_dir, ctx->cluster->config().groupby_memory_bytes, &lsm));
    *out = std::move(lsm);
  }
  return Status::OK();
}

Status MakeVidIndex(JobRuntimeContext* ctx, int p, const std::string& name,
                    std::unique_ptr<BTree>* out) {
  const std::string dir = ctx->PartitionDir(p);
  PREGELIX_CHECK(EnsureDir(dir));
  const int worker = ctx->cluster->worker_of_partition(p);
  const std::string path = dir + "/" + name;
  DeleteFileIfExists(path);
  return BTree::Open(&ctx->cluster->cache(worker), path, out);
}

SortConfig MakeSortConfig(JobRuntimeContext* ctx, TaskContext& task,
                          const std::string& tag) {
  SortConfig config;
  config.field_count = 2;
  config.key_field = 0;
  config.memory_budget_bytes = task.config->groupby_memory_bytes;
  config.frame_size = task.config->frame_size;
  config.scratch_prefix = ctx->PartitionDir(task.partition) + "/" + tag +
                          "-" + std::to_string(ctx->current_superstep);
  config.metrics = task.metrics;
  config.tracer = task.tracer;
  config.worker = task.worker;
  config.profile = task.profile;
  return config;
}

/// The message group-by the superstep resolved (ctx->current_groupby), for
/// the send-side pre-combine and the unmerged receive side. A dense one is
/// the receive side's: one slot per vid of this partition, which holds the
/// vids of one residue mod the partition count (ConnectorSpec::Route). The
/// compute clone builds its dense send side itself.
std::unique_ptr<Grouper> MakeMessageGrouper(JobRuntimeContext* ctx,
                                            TaskContext& task,
                                            const std::string& tag) {
  const SortConfig config = MakeSortConfig(ctx, task, tag);
  GroupCombiner combiner = ctx->program->MsgCombiner();
  switch (ctx->current_groupby) {
    case GroupByStrategy::kDense: {
      const PartitionState& state = ctx->partitions[task.partition];
      return std::make_unique<DenseGrouper>(
          config, std::move(combiner), state.min_vid, state.dense_slots,
          static_cast<uint64_t>(task.num_partitions));
    }
    case GroupByStrategy::kHashSort:
      return std::make_unique<HashSortGrouper>(config, std::move(combiner));
    default:
      return std::make_unique<ExternalSortGrouper>(config,
                                                   std::move(combiner));
  }
}

/// Per-partition global-state contribution tuple payload
/// (flows D4/D5 pre-aggregated at the worker, paper Section 5.3.3).
struct Contribution {
  bool halt = true;  ///< AND identity
  int64_t live = 0;
  std::string aggregate;  ///< partial aggregate (or empty when no hooks)
  bool has_aggregate = false;

  std::string Encode() const {
    std::string out;
    out.push_back(halt ? 1 : 0);
    out.push_back(has_aggregate ? 1 : 0);
    PutFixed64(&out, static_cast<uint64_t>(live));
    PutLengthPrefixed(&out, Slice(aggregate));
    return out;
  }
  Status Decode(Slice in) {
    if (in.size() < 10) return Status::Corruption("contribution too short");
    halt = in[0] != 0;
    has_aggregate = in[1] != 0;
    in.remove_prefix(2);
    live = static_cast<int64_t>(DecodeFixed64(in.data()));
    in.remove_prefix(8);
    Slice agg;
    if (!GetLengthPrefixed(&in, &agg)) {
      return Status::Corruption("contribution aggregate truncated");
    }
    aggregate = agg.ToString();
    return Status::OK();
  }
};

/// Encodes one mutation as a list item for the resolve group-by.
std::string EncodeMutationItem(const MutationRecord& m) {
  std::string payload;
  payload.push_back(static_cast<char>(m.op));
  payload.append(m.vertex_bytes);
  std::string item;
  PutLengthPrefixed(&item, Slice(payload));
  return item;
}

Status DecodeMutationItems(int64_t vid, const Slice& list,
                           std::vector<MutationRecord>* out) {
  out->clear();
  Slice in = list;
  Slice item;
  while (GetLengthPrefixed(&in, &item)) {
    if (item.empty()) return Status::Corruption("empty mutation item");
    MutationRecord m;
    m.op = static_cast<MutationRecord::Op>(item[0]);
    m.vid = vid;
    m.vertex_bytes.assign(item.data() + 1, item.size() - 1);
    out->push_back(std::move(m));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Load plan

Status RunScanOp(JobRuntimeContext* ctx, TaskContext& task) {
  std::vector<std::string> names;
  PREGELIX_RETURN_NOT_OK(
      ctx->dfs->List(ctx->job_config->input_dir, &names));
  std::string record;
  int index = 0;
  for (const std::string& name : names) {
    if (name.rfind("part-", 0) != 0) continue;
    // Round-robin part files over scan clones (data locality in spirit).
    if (index++ % task.num_partitions != task.partition) continue;
    PREGELIX_RETURN_NOT_OK(ScanGraphPart(
        *ctx->dfs, ctx->job_config->input_dir + "/" + name,
        [&](int64_t vid, const std::vector<int64_t>& dests) -> Status {
          PREGELIX_RETURN_NOT_OK(
              ctx->program->InitialVertex(vid, dests, &record));
          char key[8];
          EncodeOrderedI64(key, vid);
          const Slice fields[2] = {Slice(key, sizeof(key)), Slice(record)};
          task.metrics->AddCpuOps(1);
          return task.output(0).Append(fields);
        }));
  }
  return Status::OK();
}

Status RunLoadOp(JobRuntimeContext* ctx, TaskContext& task) {
  const int p = task.partition;
  PartitionState& state = ctx->partitions[p];
  PREGELIX_RETURN_NOT_OK(MakeVertexIndex(ctx, p, &state.vertex_index));
  const bool loj = ctx->MaintainsVid();

  ExternalSortGrouper sorter(MakeSortConfig(ctx, task, "loadsort"));
  FrameTupleAccessor acc(2);
  std::string frame;
  while (task.input(0).Next(&frame)) {
    acc.Reset(Slice(frame));
    for (int t = 0; t < acc.tuple_count(); ++t) {
      const Slice fields[2] = {acc.field(t, 0), acc.field(t, 1)};
      PREGELIX_RETURN_NOT_OK(sorter.Add(fields));
    }
  }

  // Bulk load Vertex (and Vid = all vertices, initially all active).
  std::unique_ptr<IndexBulkLoader> loader =
      state.vertex_index->NewBulkLoader();
  std::unique_ptr<IndexBulkLoader> vid_loader;
  if (loj) {
    PREGELIX_RETURN_NOT_OK(
        MakeVidIndex(ctx, p, "vid-1.btree", &state.vid_index));
    vid_loader = state.vid_index->NewBulkLoader();
  }
  std::string last_key;
  int64_t vertices = 0, edges = 0;
  int64_t min_vid = std::numeric_limits<int64_t>::max();
  int64_t max_vid = std::numeric_limits<int64_t>::min();
  PREGELIX_RETURN_NOT_OK(
      sorter.Finish([&](std::span<const Slice> fields) -> Status {
        if (!last_key.empty() && Slice(last_key) == fields[0]) {
          PLOG(Warn) << "duplicate vid in input, keeping first";
          return Status::OK();
        }
        last_key = fields[0].ToString();
        PREGELIX_RETURN_NOT_OK(loader->Add(fields[0], fields[1]));
        if (vid_loader != nullptr) {
          PREGELIX_RETURN_NOT_OK(vid_loader->Add(fields[0], Slice()));
        }
        ++vertices;
        edges += VertexEdgeCount(fields[1]);
        const int64_t vid = DecodeOrderedI64(fields[0].data());
        min_vid = std::min(min_vid, vid);
        max_vid = std::max(max_vid, vid);
        return Status::OK();
      }));
  PREGELIX_RETURN_NOT_OK(loader->Finish());
  if (vid_loader != nullptr) {
    PREGELIX_RETURN_NOT_OK(vid_loader->Finish());
  }
  state.vertices = vertices;
  state.edges = edges;
  state.min_vid = min_vid;
  state.max_vid = max_vid;
  state.msg_path.clear();
  state.vid_extra_path.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Superstep plan: compute operator

/// Shared compute machinery for both join strategies. It is also the sink
/// of the compute UDF's messages, which go straight into its send-side
/// grouper.
class ComputeDriver final : public MessageSink {
 public:
  ComputeDriver(JobRuntimeContext* ctx, TaskContext& task)
      : ctx_(ctx),
        task_(task),
        state_(ctx->partitions[task.partition]),
        loj_(ctx->current_join == JoinStrategy::kLeftOuter),
        defer_updates_(ctx->current_join == JoinStrategy::kFullOuter),
        mutates_(ctx->program->MutatesGraph()),
        agg_hooks_(ctx->program->GlobalAggregator()),
        pending_(ctx->PartitionDir(task.partition) + "/pending-" +
                     std::to_string(ctx->current_superstep),
                 task.config->frame_size, 2, task.metrics) {
    contribution_.aggregate = agg_hooks_.initial;
    contribution_.has_aggregate = agg_hooks_.valid();
    if (ctx->current_groupby != GroupByStrategy::kDense) {
      grouper_ = MakeMessageGrouper(ctx, task, "sendgb");
    } else if (ctx->dense_slots > 0) {
      // One slot per vid of the whole loaded range.
      auto dense = std::make_unique<DenseGrouper>(
          MakeSortConfig(ctx, task, "sendgb"), ctx->program->MsgCombiner(),
          ctx->dense_lo, ctx->dense_slots);
      dense_ = dense.get();
      grouper_ = std::move(dense);
    }
    // Otherwise that array does not fit, and there is no send-side
    // pre-combine: Send hands each message straight to the connector.
    output_.sink = this;
  }

  /// D3: one message into the sender-side pre-combine, or to the connector
  /// when there is none. A dense grouper takes a payload of its width by
  /// vid; everything else goes through Grouper::Add, which checks it (the
  /// receiving dense grouper checks an uncombined message).
  Status Send(int64_t dst, const Slice& payload) override {
    ++sent_;
    if (dense_ != nullptr && payload.size() == dense_->width()) {
      return dense_->AddVid(dst, payload.data());
    }
    char key[8];
    EncodeOrderedI64(key, dst);
    const Slice fields[2] = {Slice(key, sizeof(key)), payload};
    return grouper_ != nullptr ? grouper_->Add(fields)
                               : task_.output(0).Append(fields);
  }

  Status Init() {
    if (ctx_->MaintainsVid()) {
      PREGELIX_RETURN_NOT_OK(MakeVidIndex(
          ctx_, task_.partition,
          "vid-" + std::to_string(ctx_->current_superstep + 1) + ".btree",
          &state_.next_vid_index));
      next_vid_loader_ = state_.next_vid_index->NewBulkLoader();
    }
    return Status::OK();
  }

  /// Runs the compute UDF for one joined row (post-filter) and routes its
  /// output to the in-flight mini-operators. `cursor` is the join's Vertex
  /// cursor; when `vertex_exists` it is on the row, and its value() is the
  /// record, a view into the index.
  Status Process(int64_t vid, bool vertex_exists, IndexIterator* cursor,
                 bool has_messages, const Slice& payload) {
    const Slice vertex_bytes = vertex_exists ? cursor->value() : Slice();
    input_.vid = vid;
    input_.vertex_exists = vertex_exists;
    input_.vertex_bytes = vertex_bytes;
    input_.has_messages = has_messages;
    input_.message_payload = payload;
    input_.superstep = ctx_->current_superstep;
    input_.global_aggregate = Slice(ctx_->gs.aggregate);
    input_.num_vertices = ctx_->gs.num_vertices;
    input_.num_edges = ctx_->gs.num_edges;
    output_.Clear();
    // D3: the UDF's messages arrive through Send.
    sent_ = 0;
    PREGELIX_RETURN_NOT_OK(ctx_->program->Compute(input_, &output_));
    CountOps(1 + sent_);

    // D2: vertex update (fused mini-operator).
    char key_bytes[8];
    EncodeOrderedI64(key_bytes, vid);
    const Slice key(key_bytes, sizeof(key_bytes));
    if (output_.vertex_dirty) {
      // Read the old record first: its view aliases what the write changes.
      const int64_t old_edges =
          vertex_exists ? VertexEdgeCount(vertex_bytes) : 0;
      PREGELIX_RETURN_NOT_OK(ApplyUpdate(key, vertex_exists, cursor,
                                         Slice(output_.vertex_bytes)));
      edges_delta_ += VertexEdgeCount(Slice(output_.vertex_bytes)) - old_edges;
      if (!vertex_exists) ++vertices_added_;
    } else if (vertex_exists &&
               VertexHalt(vertex_bytes) != output_.voted_halt) {
      halt_flip_.assign(vertex_bytes.data(), vertex_bytes.size());
      SetVertexHalt(&halt_flip_, output_.voted_halt);
      PREGELIX_RETURN_NOT_OK(
          ApplyUpdate(key, vertex_exists, cursor, Slice(halt_flip_)));
    } else if (!vertex_exists) {
      return Status::Internal(
          "compute created a vertex without marking it dirty");
    }

    // D4/D5: global state contributions.
    contribution_.halt &= output_.voted_halt && sent_ == 0;
    if (!output_.voted_halt) ++contribution_.live;
    if (agg_hooks_.valid() && output_.has_aggregate) {
      agg_hooks_.step(Slice(output_.aggregate_contribution),
                      &contribution_.aggregate);
    }

    // D6: mutations. A program that does not declare them has no D6 flow;
    // failing beats dropping them.
    if (!mutates_ && !output_.mutations.empty()) {
      return Status::InvalidArgument(
          "compute of vertex " + std::to_string(vid) +
          " emitted a graph mutation of vertex " +
          std::to_string(output_.mutations.front().vid) +
          ", but its program does not declare MutatesGraph()");
    }
    for (const MutationRecord& m : output_.mutations) {
      const std::string key = OrderedKeyI64(m.vid);
      const std::string item = EncodeMutationItem(m);
      const Slice fields[2] = {Slice(key), Slice(item)};
      PREGELIX_RETURN_NOT_OK(task_.output(2).Append(fields));
    }

    // D11/D12: the live-vertex set for the next superstep.
    if (next_vid_loader_ != nullptr && !output_.voted_halt) {
      PREGELIX_RETURN_NOT_OK(next_vid_loader_->Add(key, Slice()));
    }
    return Status::OK();
  }

  /// Counts tuple-ops of this compute task (the UDF calls, plus the join's
  /// scan and probe work); Finish charges them.
  void CountOps(uint64_t ops) { cpu_ops_ += ops; }

  /// True once a frame of left-outer updates awaits ApplyUpserts.
  bool UpsertsFull() const {
    return upserts_.size() >= task_.config->frame_size;
  }

  /// Upserts the left-outer updates gathered so far. The caller holds no
  /// cursor over the Vertex index.
  Status ApplyUpserts() {
    Slice in(upserts_);
    Slice key, value;
    while (GetLengthPrefixed(&in, &key) && GetLengthPrefixed(&in, &value)) {
      PREGELIX_RETURN_NOT_OK(state_.vertex_index->Upsert(key, value));
    }
    upserts_.clear();
    return Status::OK();
  }

  /// Flushes messages, contribution, pending updates, and the Vid loader.
  Status Finish() {
    // One add per task instead of one per vertex on counters shared by every
    // task of the worker; they are read only after the job completes.
    ctx_->edges_delta.fetch_add(edges_delta_);
    ctx_->vertices_added.fetch_add(vertices_added_);
    task_.metrics->AddCpuOps(cpu_ops_);
    // Deferred Vertex updates: safe to apply now — the join has dropped its
    // cursor.
    PREGELIX_RETURN_NOT_OK(ApplyUpserts());
    if (pending_any_) {
      PREGELIX_RETURN_NOT_OK(pending_.Finish());
      TupleRunReader reader(pending_.path(), 2, task_.metrics);
      PREGELIX_RETURN_NOT_OK(reader.Init());
      while (reader.Valid()) {
        PREGELIX_RETURN_NOT_OK(
            state_.vertex_index->Upsert(reader.field(0), reader.field(1)));
        PREGELIX_RETURN_NOT_OK(reader.Next());
      }
      DeleteFileIfExists(pending_.path());
    }
    // Combined message stream to the connector (sorted by destination, so
    // the merging connector's receiver sees sorted sender runs).
    if (grouper_ != nullptr) {
      PREGELIX_RETURN_NOT_OK(
          grouper_->Finish([&](std::span<const Slice> fields) {
            return task_.output(0).Append(fields);
          }));
    }
    // Contribution tuple (m-to-one).
    const std::string key = OrderedKeyI64(task_.partition);
    const std::string payload = contribution_.Encode();
    const Slice fields[2] = {Slice(key), Slice(payload)};
    PREGELIX_RETURN_NOT_OK(task_.output(1).Append(fields));
    if (next_vid_loader_ != nullptr) {
      PREGELIX_RETURN_NOT_OK(next_vid_loader_->Finish());
    }
    ReleaseConsumedInputs();
    return Status::OK();
  }

 private:
  /// Deletes this superstep's inputs, which the join has fully read: Msg_i
  /// and, when the job keeps a live-vertex set, Vid_i and its resolve
  /// extras. The barrier then only installs Msg_{i+1}/Vid_{i+1}. Callers
  /// have released every cursor over them by now.
  void ReleaseConsumedInputs() {
    if (!state_.msg_path.empty()) DeleteFileIfExists(state_.msg_path);
    if (!ctx_->MaintainsVid()) return;
    if (state_.vid_index != nullptr) {
      Status s = state_.vid_index->Destroy();
      if (!s.ok()) PLOG(Warn) << "vid destroy: " << s.ToString();
      state_.vid_index.reset();
    }
    if (!state_.vid_extra_path.empty()) {
      DeleteFileIfExists(state_.vid_extra_path);
    }
  }

  /// D2 application policy, one rule for both joins: an existing record
  /// is overwritten through the cursor that read it where the cursor can
  /// take it (a same-length B-tree record). Anything else is structural
  /// and waits until the join has dropped its cursor. The full-outer plan
  /// is mid-scan, so it buffers that in the pending run and applies it
  /// after the scan. The left-outer plan gathers it in memory, and its join
  /// applies each frame of it between two probes (ApplyUpserts), since an
  /// LSM upsert may flush the memtable and merge away a component whose
  /// page the cursor holds. On LSM storage every update is structural, and
  /// the pending run would write and read back each updated record once
  /// more.
  Status ApplyUpdate(const Slice& key, bool vertex_exists,
                     IndexIterator* cursor, const Slice& new_bytes) {
    if (vertex_exists) {
      bool written = false;
      PREGELIX_RETURN_NOT_OK(cursor->TryOverwriteValue(new_bytes, &written));
      if (written) return Status::OK();
    }
    if (defer_updates_) {
      pending_any_ = true;
      const Slice fields[2] = {key, new_bytes};
      return pending_.Append(fields);
    }
    PutLengthPrefixed(&upserts_, key);
    PutLengthPrefixed(&upserts_, new_bytes);
    return Status::OK();
  }

  JobRuntimeContext* ctx_;
  TaskContext& task_;
  PartitionState& state_;
  const bool loj_;
  const bool defer_updates_;
  const bool mutates_;  ///< the plan has the D6 output and resolve
  GlobalAggHooks agg_hooks_;

  /// The send-side pre-combine; null when a dense superstep sends
  /// uncombined.
  std::unique_ptr<Grouper> grouper_;
  DenseGrouper* dense_ = nullptr;  ///< grouper_ when the group-by is dense
  std::unique_ptr<IndexBulkLoader> next_vid_loader_;
  TupleRunWriter pending_;
  bool pending_any_ = false;
  std::string upserts_;  ///< left-outer updates awaiting a dropped cursor
  int64_t edges_delta_ = 0;
  int64_t vertices_added_ = 0;
  uint64_t cpu_ops_ = 0;
  Contribution contribution_;
  ComputeInput input_;
  ComputeOutput output_;
  uint64_t sent_ = 0;  ///< messages Send took during the current Compute
  std::string halt_flip_;  ///< a record whose halt flag alone changed
};

/// Index full outer join strategy (Figure 8 left): single-pass merge of the
/// sorted Msg run with the full Vertex index scan.
Status FullOuterJoin(JobRuntimeContext* ctx, TaskContext& task,
                     TupleRunReader& msg, ComputeDriver* driver) {
  PartitionState& state = ctx->partitions[task.partition];

  std::unique_ptr<IndexIterator> vertex = state.vertex_index->NewIterator();
  PREGELIX_RETURN_NOT_OK(vertex->SeekToFirst());

  while (msg.Valid() || vertex->Valid()) {
    int cmp;
    if (!msg.Valid()) {
      cmp = 1;  // vertex only
    } else if (!vertex->Valid()) {
      cmp = -1;  // message only
    } else {
      cmp = msg.field(0).compare(vertex->key());
    }
    if (cmp < 0) {
      // Left-outer case: message to a missing vertex — create it.
      const int64_t vid = DecodeOrderedI64(msg.field(0).data());
      PREGELIX_RETURN_NOT_OK(
          driver->Process(vid, /*vertex_exists=*/false, vertex.get(),
                          /*has_messages=*/true, msg.field(1)));
      PREGELIX_RETURN_NOT_OK(msg.Next());
    } else if (cmp == 0) {
      const int64_t vid = DecodeOrderedI64(msg.field(0).data());
      PREGELIX_RETURN_NOT_OK(
          driver->Process(vid, true, vertex.get(), true, msg.field(1)));
      PREGELIX_RETURN_NOT_OK(msg.Next());
      PREGELIX_RETURN_NOT_OK(vertex->Next());
    } else {
      // Right-outer case: vertex without messages — the filter
      // σ(halt=false || payload≠NULL) prunes halted ones.
      if (!VertexHalt(vertex->value())) {
        const int64_t vid = DecodeOrderedI64(vertex->key().data());
        PREGELIX_RETURN_NOT_OK(
            driver->Process(vid, true, vertex.get(), false, Slice()));
      } else {
        driver->CountOps(1);  // scanned and filtered
      }
      PREGELIX_RETURN_NOT_OK(vertex->Next());
    }
  }
  return Status::OK();
}

/// Index left outer join strategy (Figure 8 right): merge(choose()) of Msg
/// with the Vid live-vertex index (plus resolve-added vids), probing the
/// Vertex index per resulting key with forward seeks of one cursor.
Status LeftOuterJoin(JobRuntimeContext* ctx, TaskContext& task,
                     TupleRunReader& msg, ComputeDriver* driver) {
  PartitionState& state = ctx->partitions[task.partition];

  std::unique_ptr<IndexIterator> vid_it;
  if (state.vid_index != nullptr) {
    vid_it = state.vid_index->NewIterator();
    PREGELIX_RETURN_NOT_OK(vid_it->SeekToFirst());
  }
  TupleRunReader extra(state.vid_extra_path, 2, task.metrics);
  PREGELIX_RETURN_NOT_OK(extra.Init());

  // The probe cursor; the join drops it to apply a frame of the updates it
  // could not take, then opens another.
  std::unique_ptr<IndexIterator> vertex = state.vertex_index->NewIterator();
  while (msg.Valid() || (vid_it != nullptr && vid_it->Valid()) ||
         extra.Valid()) {
    // Smallest key among the three sorted sources.
    Slice min_key;
    bool has_msg = false;
    auto consider = [&](const Slice& key) {
      if (min_key.empty() || key.compare(min_key) < 0) min_key = key;
    };
    if (msg.Valid()) consider(msg.field(0));
    if (vid_it != nullptr && vid_it->Valid()) consider(vid_it->key());
    if (extra.Valid()) consider(extra.field(0));

    const std::string key = min_key.ToString();
    Slice payload;
    if (msg.Valid() && msg.field(0) == Slice(key)) {
      has_msg = true;
      payload = msg.field(1);  // valid until msg.Next()
    }
    // choose(): advance all sources holding this key; Msg supplies payload.
    if (vid_it != nullptr && vid_it->Valid() && vid_it->key() == Slice(key)) {
      PREGELIX_RETURN_NOT_OK(vid_it->Next());
    }
    while (extra.Valid() && extra.field(0) == Slice(key)) {
      PREGELIX_RETURN_NOT_OK(extra.Next());
    }

    // Probe the Vertex index: the cost model charges a probe the
    // root-to-leaf descent ("it needs to search the index from the root
    // every time; this is not worthwhile if most data in the leaf nodes will
    // be qualified as join results" — paper Section 7.5), versus 1 op/row
    // for the merge scan. The keys ascend, so the cursor mostly stays in
    // its pinned leaf.
    const int64_t vid = DecodeOrderedI64(key.data());
    PREGELIX_RETURN_NOT_OK(vertex->Seek(Slice(key)));
    driver->CountOps(4);
    if (!vertex->Valid() || vertex->key() != Slice(key)) {
      if (has_msg) {
        PREGELIX_RETURN_NOT_OK(
            driver->Process(vid, false, vertex.get(), true, payload));
      }
      // else: a live-set entry whose vertex was removed by a mutation.
    } else if (has_msg || !VertexHalt(vertex->value())) {
      PREGELIX_RETURN_NOT_OK(
          driver->Process(vid, true, vertex.get(), has_msg, payload));
    }
    if (has_msg) {
      PREGELIX_RETURN_NOT_OK(msg.Next());
    }
    if (driver->UpsertsFull()) {
      vertex.reset();
      PREGELIX_RETURN_NOT_OK(driver->ApplyUpserts());
      vertex = state.vertex_index->NewIterator();
    }
  }
  return Status::OK();
}

/// One compute clone: the superstep's join feeds the compute UDF, and
/// Finish runs once the join has dropped its cursors over the inputs. The
/// Msg relation the join read is the clone's input in its profile.
Status RunComputeOp(JobRuntimeContext* ctx, TaskContext& task, bool loj) {
  ComputeDriver driver(ctx, task);
  PREGELIX_RETURN_NOT_OK(driver.Init());
  {
    TupleRunReader msg(ctx->partitions[task.partition].msg_path, 2,
                       task.metrics);
    PREGELIX_RETURN_NOT_OK(msg.Init());
    PREGELIX_RETURN_NOT_OK(loj ? LeftOuterJoin(ctx, task, msg, &driver)
                               : FullOuterJoin(ctx, task, msg, &driver));
    task.profile->tuples_in += msg.count();
    task.profile->frames_in += msg.frames();
    task.profile->bytes_in += msg.bytes();
  }
  return driver.Finish();
}

// ---------------------------------------------------------------------------
// Superstep plan: combine / global aggregation / resolve operators

Status RunCombineOp(JobRuntimeContext* ctx, TaskContext& task) {
  const int p = task.partition;
  PartitionState& state = ctx->partitions[p];
  const std::string path =
      ctx->PartitionDir(p) + "/msg-" +
      std::to_string(ctx->current_superstep + 1);
  TupleRunWriter writer(path, task.config->frame_size, 2, task.metrics);
  uint64_t payload_bytes = 0;
  auto emit = [&](std::span<const Slice> fields) {
    payload_bytes += fields[1].size();
    return writer.Append(fields);
  };
  FrameTupleAccessor acc(2);
  std::string frame;

  if (ctx->current_connector == GroupByConnector::kMerged) {
    // The merging connector already delivers a key-sorted stream: one-pass
    // preclustered group-by.
    PreclusteredGrouper grouper(ctx->program->MsgCombiner(), task.metrics);
    while (task.input(0).Next(&frame)) {
      acc.Reset(Slice(frame));
      for (int t = 0; t < acc.tuple_count(); ++t) {
        PREGELIX_RETURN_NOT_OK(
            grouper.Add(acc.field(t, 0), acc.field(t, 1), emit));
      }
    }
    PREGELIX_RETURN_NOT_OK(grouper.Finish(emit));
  } else {
    // Frames in arrival order; the grouper folds them in that order.
    std::unique_ptr<Grouper> grouper = MakeMessageGrouper(ctx, task, "recvgb");
    while (task.input(0).Next(&frame)) {
      acc.Reset(Slice(frame));
      for (int t = 0; t < acc.tuple_count(); ++t) {
        const Slice fields[2] = {acc.field(t, 0), acc.field(t, 1)};
        PREGELIX_RETURN_NOT_OK(grouper->Add(fields));
      }
    }
    PREGELIX_RETURN_NOT_OK(grouper->Finish(emit));
  }
  PREGELIX_RETURN_NOT_OK(writer.Finish());
  // The Msg relation it writes is the operator's output in its profile.
  task.profile->tuples_out += writer.count();
  task.profile->frames_out += writer.frames();
  task.profile->bytes_out += writer.bytes();
  state.next_msg_path = path;
  state.next_msg_count = writer.count();
  state.next_msg_bytes = payload_bytes;
  return Status::OK();
}

Status RunGlobalAggOp(JobRuntimeContext* ctx, TaskContext& task) {
  GlobalAggHooks hooks = ctx->program->GlobalAggregator();
  GlobalState next = ctx->gs;
  next.superstep = ctx->current_superstep;
  next.halt = true;
  next.live_vertices = 0;
  std::string agg_acc = hooks.initial;

  // Contributions arrive in frame-arrival order, which varies run to run.
  // One tuple arrives per compute clone, keyed by partition id: buffer and
  // sort them so the aggregator folds in partition order and float
  // aggregates (e.g. PageRank's dangling mass) are bit-stable across runs.
  FrameTupleAccessor acc(2);
  std::string frame;
  std::vector<std::pair<std::string, std::string>> contribs;
  while (task.input(0).Next(&frame)) {
    acc.Reset(Slice(frame));
    for (int t = 0; t < acc.tuple_count(); ++t) {
      contribs.emplace_back(acc.field(t, 0).ToString(),
                            acc.field(t, 1).ToString());
    }
  }
  std::sort(contribs.begin(), contribs.end());
  for (const auto& [key, encoded] : contribs) {
    Contribution c;
    PREGELIX_RETURN_NOT_OK(c.Decode(Slice(encoded)));
    next.halt = next.halt && c.halt;
    next.live_vertices += c.live;
    if (hooks.valid() && c.has_aggregate) {
      hooks.step(Slice(c.aggregate), &agg_acc);
    }
    task.metrics->AddCpuOps(1);
  }
  if (hooks.valid()) {
    if (hooks.finish) hooks.finish(&agg_acc);
    next.aggregate = agg_acc;
  }
  {
    MutexLock lock(&ctx->gs_mutex);
    ctx->pending_gs = next;
  }
  return Status::OK();
}

Status RunResolveOp(JobRuntimeContext* ctx, TaskContext& task) {
  const int p = task.partition;
  PartitionState& state = ctx->partitions[p];
  const bool loj = ctx->MaintainsVid();

  ExternalSortGrouper grouper(MakeSortConfig(ctx, task, "resolve"),
                              ListMsgCombiner());
  FrameTupleAccessor acc(2);
  std::string frame;
  bool any = false;
  while (task.input(0).Next(&frame)) {
    acc.Reset(Slice(frame));
    for (int t = 0; t < acc.tuple_count(); ++t) {
      const Slice fields[2] = {acc.field(t, 0), acc.field(t, 1)};
      PREGELIX_RETURN_NOT_OK(grouper.Add(fields));
      any = true;
    }
  }
  if (!any) {
    // Nothing to resolve; still drain the grouper for symmetry.
    return grouper.Finish(
        [](std::span<const Slice>) { return Status::OK(); });
  }

  std::unique_ptr<TupleRunWriter> extra_writer;
  if (loj) {
    const std::string path =
        ctx->PartitionDir(p) + "/vidextra-" +
        std::to_string(ctx->current_superstep + 1);
    extra_writer = std::make_unique<TupleRunWriter>(
        path, task.config->frame_size, 2, task.metrics);
  }
  std::vector<MutationRecord> mutations;
  std::string vertex_bytes;
  std::string old_bytes;
  PREGELIX_RETURN_NOT_OK(grouper.Finish(
      [&](std::span<const Slice> fields) -> Status {
        const int64_t vid = DecodeOrderedI64(fields[0].data());
        PREGELIX_RETURN_NOT_OK(
            DecodeMutationItems(vid, fields[1], &mutations));
        vertex_bytes.clear();
        const PregelProgram::ResolveAction action =
            ctx->program->Resolve(vid, mutations, &vertex_bytes);
        task.metrics->AddCpuOps(mutations.size());
        const Status get = state.vertex_index->Get(fields[0], &old_bytes);
        const bool existed = get.ok();
        if (!existed && !get.IsNotFound()) return get;
        switch (action) {
          case PregelProgram::ResolveAction::kUpsert: {
            PREGELIX_RETURN_NOT_OK(
                state.vertex_index->Upsert(fields[0], Slice(vertex_bytes)));
            if (!existed) ctx->vertices_added.fetch_add(1);
            ctx->edges_delta.fetch_add(
                VertexEdgeCount(Slice(vertex_bytes)) -
                (existed ? VertexEdgeCount(Slice(old_bytes)) : 0));
            if (extra_writer != nullptr &&
                !VertexHalt(Slice(vertex_bytes))) {
              const Slice vfields[2] = {fields[0], Slice()};
              PREGELIX_RETURN_NOT_OK(extra_writer->Append(vfields));
            }
            break;
          }
          case PregelProgram::ResolveAction::kDelete: {
            if (existed) {
              PREGELIX_RETURN_NOT_OK(state.vertex_index->Delete(fields[0]));
              ctx->vertices_removed.fetch_add(1);
              ctx->edges_delta.fetch_sub(VertexEdgeCount(Slice(old_bytes)));
            }
            break;
          }
          case PregelProgram::ResolveAction::kNone:
            break;
        }
        return Status::OK();
      }));
  if (extra_writer != nullptr) {
    PREGELIX_RETURN_NOT_OK(extra_writer->Finish());
    state.next_vid_extra_path = extra_writer->path();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Dump / checkpoint / recovery operators

Status RunDumpOp(JobRuntimeContext* ctx, TaskContext& task) {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("pregel.dump"));
  PartitionState& state = ctx->partitions[task.partition];
  std::unique_ptr<WritableFile> out;
  PREGELIX_RETURN_NOT_OK(ctx->dfs->OpenForWrite(
      ctx->job_config->output_dir + "/part-" +
          std::to_string(task.partition),
      &out));
  std::unique_ptr<IndexIterator> it = state.vertex_index->NewIterator();
  PREGELIX_RETURN_NOT_OK(it->SeekToFirst());
  std::string line;
  while (it->Valid()) {
    PREGELIX_RETURN_NOT_OK(ctx->program->FormatVertex(
        DecodeOrderedI64(it->key().data()), it->value(), &line));
    line.push_back('\n');
    PREGELIX_RETURN_NOT_OK(out->Append(line));
    task.metrics->AddCpuOps(1);
    PREGELIX_RETURN_NOT_OK(it->Next());
  }
  return out->Close();
}

namespace {

/// Installs `<dir>/<name>.tmp` as `<dir>/<name>` and records its size and
/// checksum in the partition's manifest contribution. Snapshot writers
/// target the .tmp name, so a crash mid-write never leaves a torn file
/// under a committed name.
Status CommitSnapshotFile(JobRuntimeContext* ctx, const std::string& dir,
                          const std::string& name, PartitionState* state) {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("pregel.checkpoint.file"));
  const std::string final_path = ctx->dfs->Resolve(dir + "/" + name);
  PREGELIX_RETURN_NOT_OK(RenameFile(final_path + ".tmp", final_path));
  PartitionState::CheckpointFileInfo info;
  info.name = name;
  PREGELIX_RETURN_NOT_OK(GetFileSize(final_path, &info.size));
  PREGELIX_RETURN_NOT_OK(ChecksumFile(final_path, &info.checksum));
  state->ckpt_files.push_back(std::move(info));
  return Status::OK();
}

}  // namespace

Status RunCheckpointOp(JobRuntimeContext* ctx, TaskContext& task,
                       int64_t superstep) {
  PartitionState& state = ctx->partitions[task.partition];
  const std::string dir = CheckpointDir(*ctx, superstep);
  PREGELIX_RETURN_NOT_OK(ctx->dfs->MakeDirs(dir));
  const std::string suffix = "-part-" + std::to_string(task.partition);
  state.ckpt_files.clear();

  // Vertex snapshot.
  TupleRunWriter vertex_writer(
      ctx->dfs->Resolve(dir + "/vertex" + suffix) + ".tmp",
      task.config->frame_size, 2, task.metrics);
  std::unique_ptr<IndexIterator> it = state.vertex_index->NewIterator();
  PREGELIX_RETURN_NOT_OK(it->SeekToFirst());
  while (it->Valid()) {
    const Slice fields[2] = {it->key(), it->value()};
    PREGELIX_RETURN_NOT_OK(vertex_writer.Append(fields));
    PREGELIX_RETURN_NOT_OK(it->Next());
  }
  PREGELIX_RETURN_NOT_OK(vertex_writer.Finish());
  PREGELIX_RETURN_NOT_OK(
      CommitSnapshotFile(ctx, dir, "vertex" + suffix, &state));

  // Msg snapshot (the checkpoint of Msg means user programs need not be
  // failure-aware, paper Section 5.5).
  TupleRunWriter msg_writer(ctx->dfs->Resolve(dir + "/msg" + suffix) + ".tmp",
                            task.config->frame_size, 2, task.metrics);
  TupleRunReader msg(state.msg_path, 2, task.metrics);
  PREGELIX_RETURN_NOT_OK(msg.Init());
  while (msg.Valid()) {
    const Slice fields[2] = {msg.field(0), msg.field(1)};
    PREGELIX_RETURN_NOT_OK(msg_writer.Append(fields));
    PREGELIX_RETURN_NOT_OK(msg.Next());
  }
  PREGELIX_RETURN_NOT_OK(msg_writer.Finish());
  PREGELIX_RETURN_NOT_OK(CommitSnapshotFile(ctx, dir, "msg" + suffix, &state));

  // Vid snapshot (left-outer plan): live set merged with resolve extras.
  if (ctx->MaintainsVid()) {
    TupleRunWriter vid_writer(
        ctx->dfs->Resolve(dir + "/vid" + suffix) + ".tmp",
        task.config->frame_size, 2, task.metrics);
    std::unique_ptr<IndexIterator> vid_it;
    if (state.vid_index != nullptr) {
      vid_it = state.vid_index->NewIterator();
      PREGELIX_RETURN_NOT_OK(vid_it->SeekToFirst());
    }
    TupleRunReader extra(state.vid_extra_path, 2, task.metrics);
    PREGELIX_RETURN_NOT_OK(extra.Init());
    while ((vid_it != nullptr && vid_it->Valid()) || extra.Valid()) {
      Slice key;
      if (vid_it != nullptr && vid_it->Valid() &&
          (!extra.Valid() || vid_it->key().compare(extra.field(0)) <= 0)) {
        key = vid_it->key();
      } else {
        key = extra.field(0);
      }
      const std::string k = key.ToString();
      const Slice fields[2] = {Slice(k), Slice()};
      PREGELIX_RETURN_NOT_OK(vid_writer.Append(fields));
      if (vid_it != nullptr && vid_it->Valid() && vid_it->key() == Slice(k)) {
        PREGELIX_RETURN_NOT_OK(vid_it->Next());
      }
      while (extra.Valid() && extra.field(0) == Slice(k)) {
        PREGELIX_RETURN_NOT_OK(extra.Next());
      }
    }
    PREGELIX_RETURN_NOT_OK(vid_writer.Finish());
    PREGELIX_RETURN_NOT_OK(
        CommitSnapshotFile(ctx, dir, "vid" + suffix, &state));
  }
  return Status::OK();
}

Status RunRecoveryOp(JobRuntimeContext* ctx, TaskContext& task,
                     int64_t superstep) {
  const int p = task.partition;
  PartitionState& state = ctx->partitions[p];
  const std::string dir = CheckpointDir(*ctx, superstep);
  const std::string suffix = "-part-" + std::to_string(p);

  // Rebuild Vertex by bulk load from the (sorted) snapshot.
  PREGELIX_RETURN_NOT_OK(MakeVertexIndex(ctx, p, &state.vertex_index));
  std::unique_ptr<IndexBulkLoader> loader =
      state.vertex_index->NewBulkLoader();
  int64_t vertices = 0, edges = 0;
  int64_t min_vid = std::numeric_limits<int64_t>::max();
  int64_t max_vid = std::numeric_limits<int64_t>::min();
  {
    TupleRunReader reader(ctx->dfs->Resolve(dir + "/vertex" + suffix), 2,
                          task.metrics);
    PREGELIX_RETURN_NOT_OK(reader.Init());
    while (reader.Valid()) {
      PREGELIX_RETURN_NOT_OK(loader->Add(reader.field(0), reader.field(1)));
      ++vertices;
      edges += VertexEdgeCount(reader.field(1));
      const int64_t vid = DecodeOrderedI64(reader.field(0).data());
      min_vid = std::min(min_vid, vid);
      max_vid = std::max(max_vid, vid);
      PREGELIX_RETURN_NOT_OK(reader.Next());
    }
  }
  PREGELIX_RETURN_NOT_OK(loader->Finish());
  state.vertices = vertices;
  state.edges = edges;
  state.min_vid = min_vid;
  state.max_vid = max_vid;

  // Restore the local Msg run.
  const std::string msg_path =
      ctx->PartitionDir(p) + "/msg-recovered-" + std::to_string(superstep);
  {
    PREGELIX_CHECK(EnsureDir(ctx->PartitionDir(p)));
    TupleRunWriter writer(msg_path, task.config->frame_size, 2,
                          task.metrics);
    TupleRunReader reader(ctx->dfs->Resolve(dir + "/msg" + suffix), 2,
                          task.metrics);
    PREGELIX_RETURN_NOT_OK(reader.Init());
    while (reader.Valid()) {
      const Slice fields[2] = {reader.field(0), reader.field(1)};
      PREGELIX_RETURN_NOT_OK(writer.Append(fields));
      PREGELIX_RETURN_NOT_OK(reader.Next());
    }
    PREGELIX_RETURN_NOT_OK(writer.Finish());
  }
  state.msg_path = msg_path;
  state.next_msg_path.clear();
  state.vid_extra_path.clear();
  state.next_vid_extra_path.clear();
  state.next_vid_index.reset();

  // Restore Vid (left-outer plan).
  if (ctx->MaintainsVid()) {
    PREGELIX_RETURN_NOT_OK(MakeVidIndex(
        ctx, p, "vid-recovered-" + std::to_string(superstep) + ".btree",
        &state.vid_index));
    std::unique_ptr<IndexBulkLoader> vid_loader =
        state.vid_index->NewBulkLoader();
    TupleRunReader reader(ctx->dfs->Resolve(dir + "/vid" + suffix), 2,
                          task.metrics);
    PREGELIX_RETURN_NOT_OK(reader.Init());
    while (reader.Valid()) {
      PREGELIX_RETURN_NOT_OK(vid_loader->Add(reader.field(0), Slice()));
      PREGELIX_RETURN_NOT_OK(reader.Next());
    }
    PREGELIX_RETURN_NOT_OK(vid_loader->Finish());
  } else {
    state.vid_index.reset();
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan builders

namespace {
SuperstepSpecTamper g_superstep_spec_tamper;
}  // namespace

void SetSuperstepSpecTamperForTesting(SuperstepSpecTamper fn) {
  g_superstep_spec_tamper = std::move(fn);
}

std::string CheckpointDir(const JobRuntimeContext& ctx, int64_t superstep) {
  return "jobs/" + ctx.job_id + "/ckpt/" + std::to_string(superstep);
}

JobSpec BuildLoadJob(JobRuntimeContext* ctx) {
  const int partitions = ctx->cluster->num_partitions();
  const size_t groupby_bytes = ctx->cluster->config().groupby_memory_bytes;
  JobSpec spec;
  spec.set_name(ctx->job_config->name + "-load");
  auto scan_op = std::make_shared<LambdaOperatorDescriptor>(
      "scan-input",
      [ctx](TaskContext& task) { return RunScanOp(ctx, task); });
  scan_op->DeclarePorts(0, 1);  // output 0: input-file order, no properties
  const int scan = spec.AddOperator(scan_op, partitions);
  auto load_op = std::make_shared<LambdaOperatorDescriptor>(
      "sort-bulkload",
      [ctx](TaskContext& task) { return RunLoadOp(ctx, task); });
  load_op
      ->DeclarePorts(1, 0)
      // The bulk loader sorts locally but each partition must already hold
      // all of its keys.
      ->DeclareInput(0, {Sortedness::kUnsorted, Partitioning::kHashByKey})
      ->DeclareMemoryBytes(groupby_bytes);
  const int load = spec.AddOperator(load_op, partitions);
  ConnectorSpec conn;
  conn.src_op = scan;
  conn.dst_op = load;
  conn.kind = ConnectorKind::kMToNPartition;
  conn.key_field = 0;
  conn.field_count = 2;
  spec.Connect(conn);
  return spec;
}

JobSpec BuildSuperstepJob(JobRuntimeContext* ctx) {
  const int partitions = ctx->cluster->num_partitions();
  JobSpec spec;
  spec.set_name(ctx->job_config->name + "-superstep-" +
                std::to_string(ctx->current_superstep));

  // Resolve the physical plan knobs for this superstep: static hints pass
  // through, and kAuto consults the feedback-driven PlanOptimizer.
  // Idempotent for the same superstep, so direct callers may rebuild the
  // job after tweaking stats.
  ResolvePlanDecision(ctx);
  const bool loj = ctx->current_join == JoinStrategy::kLeftOuter;
  const bool merged = ctx->current_connector == GroupByConnector::kMerged;
  // A dense superstep whose whole-range array does not fit sends its
  // messages uncombined, in compute order; ResolvePlanDecision pairs that
  // only with the unmerged connector.
  const bool presorted = ctx->current_groupby != GroupByStrategy::kDense ||
                         ctx->dense_slots > 0;
  // Flow D6 and resolve exist only for programs that declare mutations.
  const bool mutates = ctx->program->MutatesGraph();
  const size_t groupby_bytes = ctx->cluster->config().groupby_memory_bytes;
  auto compute_op = std::make_shared<LambdaOperatorDescriptor>(
      loj ? "compute-left-outer-join" : "compute-full-outer-join",
      [ctx, loj](TaskContext& task) { return RunComputeOp(ctx, task, loj); });
  compute_op
      ->DeclarePorts(0, mutates ? 3 : 2)
      // Output 0: the send-side group-by emits combined messages in
      // destination-key order (what the merging connector's receiver
      // merges); uncombined messages carry no order. Outputs 1 (GS
      // contributions) and 2 (mutations, when the program declares them)
      // carry no properties.
      ->DeclareOutput(0, {presorted ? Sortedness::kSortedByKey
                                    : Sortedness::kUnsorted,
                          Partitioning::kArbitrary})
      ->DeclareMemoryBytes(groupby_bytes);  // the "sendgb" grouper
  const int compute = spec.AddOperator(compute_op, partitions);
  auto combine_op = std::make_shared<LambdaOperatorDescriptor>(
      "combine-msgs",
      [ctx](TaskContext& task) { return RunCombineOp(ctx, task); });
  combine_op
      ->DeclarePorts(1, 0)
      // Under the merged connector the receive side runs the preclustered
      // grouper, which needs key-sorted arrival; either way the message
      // stream must be partitioned like the vertices.
      ->DeclareInput(0, {merged ? Sortedness::kSortedByKey
                                : Sortedness::kUnsorted,
                         Partitioning::kHashByKey})
      ->DeclareMemoryBytes(groupby_bytes);  // the "recvgb" grouper
  const int combine = spec.AddOperator(combine_op, partitions);
  auto global_op = std::make_shared<LambdaOperatorDescriptor>(
      "global-agg",
      [ctx](TaskContext& task) { return RunGlobalAggOp(ctx, task); });
  global_op->DeclarePorts(1, 0)->DeclareInput(
      0, {Sortedness::kUnsorted, Partitioning::kSingleton});
  const int global = spec.AddOperator(global_op, 1);

  // D3/D7: messages, via the configured group-by connector.
  ConnectorSpec msgs;
  msgs.src_op = compute;
  msgs.src_output = 0;
  msgs.dst_op = combine;
  msgs.kind = merged ? ConnectorKind::kMToNPartitionMerge
                     : ConnectorKind::kMToNPartition;
  msgs.key_field = 0;
  msgs.field_count = 2;
  spec.Connect(msgs);

  // D4/D5: contributions to the single global-aggregation clone.
  ConnectorSpec contrib;
  contrib.src_op = compute;
  contrib.src_output = 1;
  contrib.dst_op = global;
  contrib.kind = ConnectorKind::kMToOne;
  contrib.field_count = 2;
  spec.Connect(contrib);

  // D6: mutations to resolve, partitioned like the vertices.
  if (mutates) {
    auto resolve_op = std::make_shared<LambdaOperatorDescriptor>(
        "resolve",
        [ctx](TaskContext& task) { return RunResolveOp(ctx, task); });
    resolve_op
        ->DeclarePorts(1, 0)
        ->DeclareInput(0, {Sortedness::kUnsorted, Partitioning::kHashByKey})
        ->DeclareMemoryBytes(groupby_bytes);  // the mutation sorter
    ConnectorSpec muts;
    muts.src_op = compute;
    muts.src_output = 2;
    muts.dst_op = spec.AddOperator(resolve_op, partitions);
    muts.kind = ConnectorKind::kMToNPartition;
    muts.key_field = 0;
    muts.field_count = 2;
    spec.Connect(muts);
  }

  if (g_superstep_spec_tamper) g_superstep_spec_tamper(ctx, &spec);
  return spec;
}

JobSpec BuildDumpJob(JobRuntimeContext* ctx) {
  JobSpec spec;
  spec.set_name(ctx->job_config->name + "-dump");
  auto dump_op = std::make_shared<LambdaOperatorDescriptor>(
      "dump-result",
      [ctx](TaskContext& task) { return RunDumpOp(ctx, task); });
  dump_op->DeclarePorts(0, 0);  // reads the Vertex index, writes the DFS
  spec.AddOperator(dump_op, ctx->cluster->num_partitions());
  return spec;
}

JobSpec BuildCheckpointJob(JobRuntimeContext* ctx, int64_t superstep) {
  JobSpec spec;
  spec.set_name(ctx->job_config->name + "-checkpoint-" +
                std::to_string(superstep));
  auto ckpt_op = std::make_shared<LambdaOperatorDescriptor>(
      "checkpoint", [ctx, superstep](TaskContext& task) {
        return RunCheckpointOp(ctx, task, superstep);
      });
  ckpt_op->DeclarePorts(0, 0);  // snapshots partition state to the DFS
  spec.AddOperator(ckpt_op, ctx->cluster->num_partitions());
  return spec;
}

JobSpec BuildRecoveryJob(JobRuntimeContext* ctx, int64_t superstep) {
  JobSpec spec;
  spec.set_name(ctx->job_config->name + "-recovery-" +
                std::to_string(superstep));
  auto recover_op = std::make_shared<LambdaOperatorDescriptor>(
      "recover", [ctx, superstep](TaskContext& task) {
        return RunRecoveryOp(ctx, task, superstep);
      });
  recover_op->DeclarePorts(0, 0);  // rebuilds partition state from the DFS
  spec.AddOperator(recover_op, ctx->cluster->num_partitions());
  return spec;
}

void AttachPaperPlanLabels(PlanProfile* profile) {
  profile->AttachLabels([](const std::string& name) -> std::string {
    if (name == "compute-full-outer-join") {
      return "Msg \xE2\x8B\x88 Vertex full-outer scan-merge + compute UDF "
             "(Figs. 3, 8 left)";
    }
    if (name == "compute-left-outer-join") {
      return "Vid-merge + left-outer Vertex probe + compute UDF (Fig. 8 "
             "right)";
    }
    if (name == "combine-msgs") {
      return "message combine group-by, flows D3\xE2\x86\x92""D7 (Fig. 5)";
    }
    if (name == "global-agg") {
      return "global aggregation clone, flows D4/D5 (Fig. 4)";
    }
    if (name == "resolve") {
      return "vertex mutation resolve, flow D6 (Fig. 4)";
    }
    if (name == "scan-input") return "DFS adjacency scan + parse (load)";
    if (name == "sort-bulkload") {
      return "external sort + Vertex/Vid index bulk load";
    }
    if (name == "dump-result") return "Vertex scan \xE2\x86\x92 DFS dump";
    if (name == "checkpoint") return "Vertex/Msg/Vid snapshot (Sec. 5.5)";
    if (name == "recover") return "checkpoint reload (Sec. 5.5)";
    return "";
  });
}

}  // namespace pregelix
