#ifndef PREGELIX_PREGEL_JOB_CONFIG_H_
#define PREGELIX_PREGEL_JOB_CONFIG_H_

#include <cstdint>
#include <string>

namespace pregelix {

/// Physical plan hints (paper Section 5.3; Figure 9 shows them set on a
/// job). Together with vertex storage they span the sixteen tailored
/// executions of Section 5.8.
enum class JoinStrategy {
  /// Index full outer join: scan the whole Vertex index and merge with the
  /// sorted Msg stream. Best when most vertices are live (PageRank).
  kFullOuter,
  /// Index left outer join: merge Msg with the Vid (live vertex) index via
  /// choose(), probe Vertex per key. Best for sparse-message algorithms
  /// (single source shortest paths).
  kLeftOuter,
  /// EXTENSION (the paper's future work asks for a cost-based optimizer,
  /// Section 9). Feedback-driven: the PlanOptimizer re-chooses per
  /// superstep from the previous superstep's observed stats and profile,
  /// with hysteresis and reactive stall/spill switches (DESIGN.md
  /// "Adaptive plan optimization"). Algorithms like CC, which are dense
  /// early and sparse late (Figure 14c), get both plans' best halves.
  kAuto,
};

enum class GroupByStrategy {
  kSort,      ///< sort-based group-by at sender and receiver
  kHashSort,  ///< hash pre-aggregation with sorted runs
  kAuto,      ///< per-superstep choice by the PlanOptimizer
  /// EXTENSION: one combined mailbox slot per vid, folded on arrival
  /// (DenseGrouper). Runs only when the combiner has a fixed width and the
  /// loaded vid range fits the group-by budget; otherwise the superstep
  /// runs kSort.
  kDense,
};

enum class GroupByConnector {
  /// m-to-n partitioning connector (fully pipelined); the receiver re-groups.
  kUnmerged,
  /// m-to-n partitioning merging connector (sender-side materializing); the
  /// receiver applies a one-pass preclustered group-by.
  kMerged,
  /// Per-superstep choice by the PlanOptimizer.
  kAuto,
};

enum class VertexStorage {
  kBTree,     ///< in-place updates; best for stable-size vertex data
  kLsmBTree,  ///< out-of-place; best under heavy mutation / size churn
  /// Resolved once at job admission by the PlanOptimizer (indexes are built
  /// at load; storage cannot switch mid-job).
  kAuto,
};

/// One Pregelix job: a vertex program applied to a graph until it halts.
struct PregelixJobConfig {
  std::string name = "pregelix-job";

  /// DFS directory with `part-*` adjacency input.
  std::string input_dir;
  /// DFS directory for the result dump; empty = skip the dump phase.
  std::string output_dir;

  JoinStrategy join = JoinStrategy::kFullOuter;
  GroupByStrategy groupby = GroupByStrategy::kDense;
  GroupByConnector groupby_connector = GroupByConnector::kUnmerged;
  VertexStorage storage = VertexStorage::kBTree;

  /// Inert: perfbench/perfbench.cc still sets it; nothing reads it. Every
  /// job is profiled (DESIGN.md §14).
  bool profile_plan = false;

  /// Stall watchdog: warn (log + metrics) when a superstep runs longer than
  /// `stall_factor` times the trailing-mean superstep wall time. <= 0
  /// disables the watchdog.
  double stall_factor = 4.0;

  /// Checkpoint every k supersteps (0 = no checkpoints). Paper Section 5.5.
  int checkpoint_interval = 0;
  /// Safety valve; 0 = run until the global halt condition.
  int max_supersteps = 200;

  /// Stable job identity on the DFS. Empty = derive a fresh unique id from
  /// `name` (the default for fire-and-forget jobs). Set it to make the
  /// job's checkpoints addressable across driver processes, which `resume`
  /// needs.
  std::string job_id;
  /// Resume a crashed job: instead of loading the input, recover from the
  /// newest valid checkpoint under jobs/<job_id>/ckpt (falling back to a
  /// fresh load if none survives validation). Requires `job_id`.
  bool resume = false;
};

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_JOB_CONFIG_H_
