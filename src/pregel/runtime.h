#ifndef PREGELIX_PREGEL_RUNTIME_H_
#define PREGELIX_PREGEL_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "dataflow/cluster.h"
#include "dataflow/plan_profile.h"
#include "dfs/dfs.h"
#include "pregel/job_config.h"
#include "pregel/plan_optimizer.h"
#include "pregel/program.h"
#include "pregel/state.h"

namespace pregelix {

/// Per-superstep statistics (the statistics collector of paper Section 5.7
/// plus the cost-model reading used by the experiment harness).
struct SuperstepStats {
  int64_t superstep = 0;
  double sim_seconds = 0;   ///< cost-model time (max worker + barrier)
  double wall_seconds = 0;  ///< actual wall clock, sanity column
  int64_t live_vertices = 0;
  int64_t messages = 0;  ///< combined messages produced for the next step
  int64_t frontier() const { return Frontier(live_vertices, messages); }
  /// Join plan executed (interesting under kAuto).
  bool used_left_outer_join = false;
  /// Group-by strategy and connector executed (interesting under kAuto).
  GroupByStrategy groupby_used = GroupByStrategy::kSort;
  GroupByConnector connector_used = GroupByConnector::kUnmerged;
  MetricsSnapshot cluster_delta;  ///< summed counters across workers

  /// Connector bytes moved this superstep (the plan profile's edges).
  uint64_t bytes_shuffled = 0;
  /// Buffer-cache misses (page loads) this superstep, summed over workers.
  uint64_t cache_misses = 0;
  /// Group-by/sort spills this superstep (from the plan profile).
  uint64_t spill_count = 0;
  uint64_t spill_bytes = 0;
  /// Per-operator plan profile of this superstep's job.
  std::shared_ptr<const PlanProfile> profile;
};

struct JobResult {
  int64_t supersteps = 0;
  double load_sim_seconds = 0;
  double dump_sim_seconds = 0;
  double supersteps_sim_seconds = 0;  ///< sum over supersteps
  double total_sim_seconds = 0;       ///< load + supersteps + dump
  double avg_iteration_sim_seconds = 0;
  double wall_seconds = 0;
  int recoveries = 0;
  GlobalState final_gs;
  std::vector<SuperstepStats> superstep_stats;
  /// One record per executed superstep: the plan the chooser resolved plus
  /// whether/why it switched (kAuto; static plans record themselves too).
  std::vector<PlanDecisionRecord> plan_decisions;
  /// Cumulative plan profile over all supersteps: operators merged by name,
  /// so an adaptive job shows both compute variants.
  std::shared_ptr<const PlanProfile> plan_profile;
};

/// The Pregelix client-side driver: plan generator, superstep loop,
/// statistics collector, and failure manager (paper Section 5.7). One
/// runtime can execute many jobs against a shared SimulatedCluster; Run is
/// thread-safe across instances (used for the multi-tenant throughput
/// experiment) because each job keeps its own partition-scoped state.
class PregelixRuntime {
 public:
  PregelixRuntime(SimulatedCluster* cluster, DistributedFileSystem* dfs,
                  CostModelParams cost_params = {});

  /// Runs one job: load -> supersteps until global halt -> dump.
  Status Run(PregelProgram* program, const PregelixJobConfig& config,
             JobResult* result);

  /// Runs a chain of compatible jobs with job pipelining (paper
  /// Section 5.6): the vertex state of job k feeds job k+1 directly —
  /// no HDFS write/read, no re-load, no index rebuild; all vertices are
  /// reactivated between jobs. Only the last job dumps output.
  Status RunPipeline(
      const std::vector<std::pair<PregelProgram*, PregelixJobConfig>>& jobs,
      std::vector<JobResult>* results);

  /// Failure injection (tests & experiments): before executing superstep
  /// `superstep` of the next Run, worker `worker` loses its local state; the
  /// failure manager then recovers from the latest checkpoint (or re-loads
  /// from the input when none exists).
  void InjectFailure(int64_t superstep, int worker) {
    fail_at_superstep_ = superstep;
    fail_worker_ = worker;
  }

 private:
  Status RunInternal(PregelProgram* program, const PregelixJobConfig& config,
                     JobRuntimeContext* ctx, bool do_load, bool do_dump,
                     JobResult* result);

  /// Installs the superstep outputs (Msg/Vid swap), folds mutation counters
  /// into GS, writes GS to the DFS.
  Status AdvanceGlobalState(JobRuntimeContext* ctx);

  /// The failure manager: recover from the newest *valid* checkpoint (the
  /// ckpt directory is listed and each candidate's MANIFEST is verified —
  /// superstep id, file sizes, per-file checksums — before any state is
  /// loaded), or signal that a restart-from-load is needed.
  Status Recover(JobRuntimeContext* ctx, int64_t* resume_superstep,
                 bool* restart_from_load);

  /// Verifies the MANIFEST of the checkpoint at `superstep`: present,
  /// matching superstep id and partition count, every snapshot file present
  /// with the recorded size and checksum, GS intact. Returns Corruption
  /// (torn or damaged state) or NotFound (incomplete checkpoint: the crash
  /// happened before the manifest commit) — never trusts a dir just
  /// because it exists.
  Status ValidateCheckpoint(JobRuntimeContext* ctx, int64_t superstep);

  /// Commits a checkpoint: snapshot job, GS write, then the MANIFEST write
  /// as the atomic commit point. Transient I/O errors are retried with
  /// backoff.
  Status WriteCheckpoint(JobRuntimeContext* ctx, int64_t superstep);

  /// Releases all per-partition storage of a finished job. `keep_dfs` keeps
  /// the job's DFS directory (GS + checkpoints) so a crashed job can be
  /// resumed by a later Run with the same job_id.
  void Cleanup(JobRuntimeContext* ctx, bool keep_dfs = false);

  /// Between pipelined jobs: reactivate vertices, clear Msg, rebuild Vid.
  Status PrepareNextPipelinedJob(JobRuntimeContext* ctx);
  Status MakePipelineVidIndex(JobRuntimeContext* ctx, int p,
                              std::unique_ptr<BTree>* out);

  SimulatedCluster* cluster_;
  DistributedFileSystem* dfs_;
  CostModelParams cost_params_;

  int64_t fail_at_superstep_ = -1;
  int fail_worker_ = -1;
};

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_RUNTIME_H_
