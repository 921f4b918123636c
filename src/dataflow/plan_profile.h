#ifndef PREGELIX_DATAFLOW_PLAN_PROFILE_H_
#define PREGELIX_DATAFLOW_PLAN_PROFILE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/time_ledger.h"
#include "dataflow/job.h"

// EXPLAIN ANALYZE for dataflow plans (see DESIGN.md "Plan profiling &
// EXPLAIN").
//
// Every RunJob is profiled. The executor hands each (operator, partition)
// clone its OperatorStats slot and each connector an EdgeProfile. A clone's
// slot is plain: only its own task thread (and the sort/group-by kernels that
// thread drives) writes it, once per frame or spill, and it is read after
// RunJob joins the threads. After the join, Finalize() completes the tree
// mirroring the JobSpec DAG, with min/median/max wall time per operator
// (-> skew factor) and the operator chain on the slowest worker (-> critical
// path).

namespace pregelix {

/// Live accumulation slot for one connector, shared by its senders and
/// receivers, so its counters are relaxed atomics; each side adds once per
/// frame. tuples_sent / frames / bytes are metered on the sender side,
/// tuples_recv on the receiver side, so `tuples_sent == tuples_recv` is the
/// tuple-conservation invariant across the exchange (frames may be
/// re-batched by a merging receiver).
struct EdgeProfile {
  std::atomic<uint64_t> tuples_sent{0};
  std::atomic<uint64_t> tuples_recv{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
};

/// Counters of one (operator, partition) clone, or their sum over clones:
/// the live slot a clone's task thread writes and the unit the finalized
/// tree is built from and merged with.
struct OperatorStats {
  uint64_t activations = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// The activations' time-ledger attachments (DESIGN.md §20), summed:
  /// their wall and its per-category split.
  uint64_t wall_ns = 0;
  std::array<int64_t, kNumTimeCategories> ledger_ns{};
  uint64_t mem_hwm_bytes = 0;  ///< merged with max, not sum
  uint64_t spill_count = 0;
  uint64_t spill_bytes = 0;

  /// Counts one activation, timed by the attachment its detach returned.
  void AddActivation(const LedgerAttachment& timed) {
    ++activations;
    wall_ns += timed.elapsed_ns();
    for (int c = 0; c < kNumTimeCategories; ++c) ledger_ns[c] += timed.ns[c];
  }
  void AddSpill(uint64_t bytes) {
    ++spill_count;
    spill_bytes += bytes;
  }
  /// Call at spill/finish boundaries, not per tuple.
  void UpdateMemHwm(uint64_t bytes) {
    mem_hwm_bytes = std::max(mem_hwm_bytes, bytes);
  }
  OperatorStats& operator+=(const OperatorStats& o);
};

/// One partition clone of an operator in the finalized tree.
struct PartitionStats {
  int partition = 0;
  int worker = 0;
  OperatorStats stats;
};

/// One logical operator of the finalized tree.
struct PlanOperatorProfile {
  int op = -1;         ///< operator id in the JobSpec (index into ops())
  std::string name;    ///< physical operator name from the descriptor
  std::string label;   ///< paper-figure label attached by the Pregel layer
  std::vector<PartitionStats> partitions;
  OperatorStats total;
  // Worker-skew attribution: wall-time spread across partition clones.
  uint64_t min_wall_ns = 0;
  uint64_t median_wall_ns = 0;
  uint64_t max_wall_ns = 0;
  double skew = 1.0;  ///< max / median wall (1.0 when degenerate)
  bool on_critical_path = false;
};

/// One connector of the finalized tree.
struct PlanEdgeProfile {
  int src_op = -1;
  int dst_op = -1;
  std::string src_name;
  std::string dst_name;
  ConnectorKind kind = ConnectorKind::kOneToOne;
  uint64_t tuples_sent = 0;
  uint64_t tuples_recv = 0;
  uint64_t frames = 0;
  uint64_t bytes = 0;
};

const char* ConnectorKindName(ConnectorKind kind);

/// Profile of one executed plan (or, after MergeFrom, of a set of executed
/// plans — the cumulative job profile). Lifecycle: InitFromJob before
/// RunJob spawns tasks, slot()/edge_slot() during execution, Finalize()
/// after the join, then read-only.
class PlanProfile {
 public:
  PlanProfile() = default;
  PlanProfile(const PlanProfile&) = delete;
  PlanProfile& operator=(const PlanProfile&) = delete;

  /// Mirrors the JobSpec DAG, one zeroed PartitionStats per clone, and
  /// allocates the live edge slots.
  void InitFromJob(const JobSpec& spec,
                   const std::function<int(int)>& worker_of_partition);

  OperatorStats* slot(int op, int partition) {
    return &ops_[static_cast<size_t>(op)]
                .partitions[static_cast<size_t>(partition)]
                .stats;
  }
  EdgeProfile* edge_slot(int connector) {
    return live_edges_[static_cast<size_t>(connector)].get();
  }

  /// Reads the live edge slots into the finalized tree and computes the
  /// skew / critical-path attribution. `job_wall_ns` is the end-to-end wall
  /// time of the RunJob call.
  void Finalize(uint64_t job_wall_ns);

  /// Folds another *finalized* profile into this one: operators are matched
  /// by name, connectors by (src, dst, kind); unmatched rows are appended
  /// (e.g. an adaptive job contributes both compute variants). Used for the
  /// cumulative job profile.
  void MergeFrom(const PlanProfile& other);

  /// Paper-name attribution: `label(name)` returns the label for a physical
  /// operator name (empty = keep current).
  void AttachLabels(
      const std::function<std::string(const std::string&)>& label);

  // --- Finalized accessors -------------------------------------------------
  const std::string& job_name() const { return job_name_; }
  const std::vector<PlanOperatorProfile>& ops() const { return ops_; }
  const std::vector<PlanEdgeProfile>& edges() const { return edges_; }
  uint64_t wall_ns() const { return wall_ns_; }
  int supersteps_merged() const { return supersteps_merged_; }
  int slowest_worker() const { return slowest_worker_; }
  uint64_t critical_path_wall_ns() const { return critical_path_wall_ns_; }
  /// Operator indexes (into ops()) of the critical path, source to sink.
  const std::vector<int>& critical_path() const { return critical_path_; }
  std::string CriticalPathString() const;

  /// Sum of connector bytes (the superstep's shuffle volume).
  uint64_t TotalShuffleBytes() const;
  uint64_t TotalSpillCount() const;
  uint64_t TotalSpillBytes() const;
  /// Per-category time of every activation: the plan's own thread time,
  /// whatever else runs in the process.
  std::array<int64_t, kNumTimeCategories> TotalLedgerNs() const;

  /// Indexes of the k operators with the largest total wall time.
  std::vector<int> TopByWall(int k) const;

  /// Annotated ASCII plan tree (the `pregelix explain` body).
  void RenderTree(std::ostream& os) const;

  /// Deterministic JSON dump. With `include_timing` false every
  /// non-deterministic field (wall times, skew, critical path) is omitted,
  /// so two runs of the same job produce byte-identical output — the
  /// `--profile-json` contract.
  void WriteJson(std::ostream& os, bool include_timing) const;

 private:
  /// Recomputes totals, wall spread, skew and the critical path from the
  /// per-partition stats (after Finalize or MergeFrom).
  void ComputeDerived();

  std::string job_name_;
  int supersteps_merged_ = 1;
  uint64_t wall_ns_ = 0;

  // Live phase only; Finalize reads them into edges_.
  std::vector<std::unique_ptr<EdgeProfile>> live_edges_;

  // The tree. Its PartitionStats are the live operator slots until
  // Finalize.
  std::vector<PlanOperatorProfile> ops_;
  std::vector<PlanEdgeProfile> edges_;
  int slowest_worker_ = -1;
  uint64_t critical_path_wall_ns_ = 0;
  std::vector<int> critical_path_;
  bool finalized_ = false;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_PLAN_PROFILE_H_
