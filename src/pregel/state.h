#ifndef PREGELIX_PREGEL_STATE_H_
#define PREGELIX_PREGEL_STATE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "pregel/job_config.h"
#include "pregel/plan_optimizer.h"
#include "pregel/program.h"
#include "storage/index.h"
#include "storage/btree.h"

namespace pregelix {

/// The GS relation of Table 1 — GS(halt, aggregate, superstep) — extended
/// with the Pregel-specific statistics the statistics collector tracks
/// (paper Section 5.7). Primary copy lives on the DFS.
struct GlobalState {
  int64_t superstep = 0;  ///< last completed superstep
  bool halt = false;
  std::string aggregate;  ///< user aggregator value after `superstep`
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  int64_t live_vertices = 0;
  int64_t messages = 0;  ///< combined messages produced by `superstep`
  /// Combined message payload volume produced by `superstep` — the plan
  /// chooser's message-dominance signal (a sparse frontier with heavy
  /// fanout must not pick the probe join).
  int64_t message_bytes = 0;

  std::string Encode() const;
  Status Decode(const Slice& bytes);
};

/// Per-partition runtime state that survives across superstep jobs (the
/// stored relations: Vertex, Msg, and Vid for the left-outer plan).
struct PartitionState {
  /// Vertex relation partition (B-tree or LSM B-tree).
  std::unique_ptr<OrderedIndex> vertex_index;
  /// Live-vertex index for superstep i (left outer join plan only).
  std::unique_ptr<BTree> vid_index;
  /// Run of vids added by resolve in the previous superstep (sorted); they
  /// participate in the merge alongside Vid (left outer join plan only).
  std::string vid_extra_path;
  /// Sorted (vid, payload) run holding Msg_i for the upcoming superstep.
  std::string msg_path;

  // Outputs of the superstep in flight, installed by the runtime at the
  // barrier:
  std::string next_msg_path;
  uint64_t next_msg_count = 0;
  uint64_t next_msg_bytes = 0;
  std::unique_ptr<BTree> next_vid_index;
  std::string next_vid_extra_path;

  // Exact vertex/edge bookkeeping (set by load, adjusted by resolve).
  int64_t vertices = 0;
  int64_t edges = 0;
  /// Smallest and largest vid of the last full pass over Vertex (load,
  /// recovery, pipelined-job handoff); min > max while none has run.
  /// Vertex creation does not widen them: the dense group-by sends keys
  /// outside the range to its overflow.
  int64_t min_vid = std::numeric_limits<int64_t>::max();
  int64_t max_vid = std::numeric_limits<int64_t>::min();
  /// Slots of this partition's kDense receive array: its vids min_vid,
  /// min_vid + P, ..., max_vid for P partitions (ConnectorSpec::Route puts
  /// vid v on partition v mod P), 0 when it holds none. Set with
  /// JobRuntimeContext::current_groupby.
  uint64_t dense_slots = 0;

  /// Snapshot files this partition contributed to the checkpoint in flight;
  /// the driver folds them into the checkpoint MANIFEST (the commit record
  /// recovery validates before trusting a checkpoint).
  struct CheckpointFileInfo {
    std::string name;  ///< file name within the checkpoint dir
    uint64_t size = 0;
    uint64_t checksum = 0;
  };
  std::vector<CheckpointFileInfo> ckpt_files;
};

/// Shared context handed to every operator clone of a Pregelix job through
/// TaskContext::runtime_context (the paper's per-worker "runtime context",
/// Section 5.7: cached GS tuple + hooks into storage).
struct JobRuntimeContext {
  PregelProgram* program = nullptr;
  const PregelixJobConfig* job_config = nullptr;
  SimulatedCluster* cluster = nullptr;
  DistributedFileSystem* dfs = nullptr;
  std::string job_id;

  /// Cached GS of the previous superstep (read-only during a superstep job).
  GlobalState gs;
  /// Superstep currently executing (gs.superstep + 1).
  int64_t current_superstep = 1;
  /// Plan knobs in effect for the current superstep. Equal the job hints
  /// except under kAuto, where ResolvePlanDecision resolves them per
  /// superstep via the PlanOptimizer.
  JoinStrategy current_join = JoinStrategy::kFullOuter;
  GroupByStrategy current_groupby = GroupByStrategy::kSort;
  GroupByConnector current_connector = GroupByConnector::kUnmerged;
  /// Resolved once at job admission (before load); never kAuto.
  VertexStorage current_storage = VertexStorage::kBTree;
  /// Slot range of the kDense send side, [dense_lo, dense_lo + dense_slots):
  /// the loaded vids of all partitions. 0 slots when that array does not
  /// fit the group-by budget: the compute clones then send every message
  /// uncombined. Set with current_groupby.
  int64_t dense_lo = 0;
  uint64_t dense_slots = 0;

  /// Feedback-driven chooser for a kAuto join or connector; null when both
  /// are static. Owned here so operator lambdas and the driver share one
  /// instance whose lifetime matches the job context.
  std::shared_ptr<PlanOptimizer> optimizer;
  /// Plan the previous superstep ran under (driver path), for switch
  /// detection by ResolveAndPublishPlan.
  PlanDecision prev_plan;
  bool has_prev_plan = false;
  /// Verifier fallback pin: when ResolveAndPublishPlan rejects the
  /// optimizer's candidate for `pinned_superstep`, ResolvePlanDecision
  /// returns `pinned_plan` for that superstep instead of re-deriving the
  /// rejected choice (the pin is inert for any other superstep).
  bool plan_pinned = false;
  int64_t pinned_superstep = -1;
  PlanDecision pinned_plan;

  /// True when the Vid live-vertex index must be maintained (any job that
  /// may run a left outer join superstep).
  bool MaintainsVid() const {
    return job_config->join != JoinStrategy::kFullOuter;
  }

  std::vector<PartitionState> partitions;

  /// Guards pending_gs: written by the single global-aggregation clone on a
  /// worker thread, read by the driver at the barrier. The thread join
  /// already orders the two, but the lock makes the contract explicit and
  /// machine-checked (and keeps any future concurrent reader safe).
  Mutex gs_mutex{"pregel_gs", LockRank::kPregelGlobalState};
  GlobalState pending_gs GUARDED_BY(gs_mutex);

  // Mutation counters (resolve side), folded into GS at the barrier.
  std::atomic<int64_t> vertices_added{0};
  std::atomic<int64_t> vertices_removed{0};
  std::atomic<int64_t> edges_delta{0};

  /// Scratch directory of one partition for this job.
  std::string PartitionDir(int p) const {
    return cluster->partition_dir(p) + "/" + job_id;
  }
};

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_STATE_H_
