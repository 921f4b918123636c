#ifndef PREGELIX_DATAFLOW_PLAN_PROFILE_H_
#define PREGELIX_DATAFLOW_PLAN_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "dataflow/job.h"

// EXPLAIN ANALYZE for dataflow plans (see DESIGN.md "Plan profiling &
// EXPLAIN").
//
// The executor allocates one OperatorProfile per (operator, partition) clone
// and one EdgeProfile per connector when a PlanProfile is handed to RunJob;
// every counter is a relaxed atomic the task threads (and the sort/group-by
// kernels underneath them) add into. After the job joins, Finalize()
// condenses the live slots into a plain tree mirroring the JobSpec DAG, with
// min/median/max wall time per operator (-> skew factor) and the operator
// chain on the slowest worker (-> critical path).
//
// With profiling off no slots exist: TaskContext::profile is null and every
// instrumentation site is a single pointer test.

namespace pregelix {

/// Live accumulation slot for one (operator, partition) activation. All
/// fields are relaxed atomics: written by the owning task thread plus any
/// kernel it drives, read only after the executor joins the job's threads.
struct OperatorProfile {
  std::atomic<uint64_t> activations{0};
  std::atomic<uint64_t> tuples_in{0};
  std::atomic<uint64_t> tuples_out{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> wall_ns{0};
  std::atomic<uint64_t> mem_hwm_bytes{0};
  std::atomic<uint64_t> spill_count{0};
  std::atomic<uint64_t> spill_bytes{0};

  void AddWall(uint64_t ns) {
    wall_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddSpill(uint64_t bytes) {
    spill_count.fetch_add(1, std::memory_order_relaxed);
    spill_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// CAS-max; call at spill/finish boundaries, not per tuple.
  void UpdateMemHwm(uint64_t bytes) {
    uint64_t prev = mem_hwm_bytes.load(std::memory_order_relaxed);
    while (bytes > prev &&
           !mem_hwm_bytes.compare_exchange_weak(prev, bytes,
                                                std::memory_order_relaxed)) {
    }
  }
};

/// Live accumulation slot for one connector. tuples_sent / frames / bytes
/// are metered on the sender side; tuples_recv on the receiver side, so
/// `tuples_sent == tuples_recv` is the tuple-conservation invariant across
/// the exchange (frames may be re-batched by a merging receiver).
struct EdgeProfile {
  std::atomic<uint64_t> tuples_sent{0};
  std::atomic<uint64_t> tuples_recv{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
};

/// Plain (non-atomic) counter bundle; the unit the finalized tree is built
/// from and merged with.
struct OperatorStats {
  uint64_t activations = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t wall_ns = 0;
  uint64_t mem_hwm_bytes = 0;  ///< merged with max, not sum
  uint64_t spill_count = 0;
  uint64_t spill_bytes = 0;

  OperatorStats& operator+=(const OperatorStats& o);
};

OperatorStats SnapshotProfile(const OperatorProfile& p);

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

  /// Mirrors the JobSpec DAG and allocates the live slots.
  void InitFromJob(const JobSpec& spec,
                   const std::function<int(int)>& worker_of_partition);

  OperatorProfile* slot(int op, int partition) {
    return live_ops_[static_cast<size_t>(op)][static_cast<size_t>(partition)]
        .get();
  }
  EdgeProfile* edge_slot(int connector) {
    return live_edges_[static_cast<size_t>(connector)].get();
  }

  /// Condenses the live slots into the finalized tree and computes the
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
  void set_supersteps_merged(int n) { supersteps_merged_ = n; }
  int slowest_worker() const { return slowest_worker_; }
  uint64_t critical_path_wall_ns() const { return critical_path_wall_ns_; }
  /// Operator indexes (into ops()) of the critical path, source to sink.
  const std::vector<int>& critical_path() const { return critical_path_; }
  std::string CriticalPathString() const;

  /// Sum of connector bytes (the superstep's shuffle volume).
  uint64_t TotalShuffleBytes() const;
  uint64_t TotalSpillCount() const;
  uint64_t TotalSpillBytes() const;

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

  // Live phase.
  std::vector<std::vector<std::unique_ptr<OperatorProfile>>> live_ops_;
  std::vector<std::unique_ptr<EdgeProfile>> live_edges_;
  std::vector<std::vector<int>> partition_worker_;  ///< [op][partition]

  // Finalized phase.
  std::vector<PlanOperatorProfile> ops_;
  std::vector<PlanEdgeProfile> edges_;
  int slowest_worker_ = -1;
  uint64_t critical_path_wall_ns_ = 0;
  std::vector<int> critical_path_;
  bool finalized_ = false;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_PLAN_PROFILE_H_
