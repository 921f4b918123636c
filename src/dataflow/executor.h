#ifndef PREGELIX_DATAFLOW_EXECUTOR_H_
#define PREGELIX_DATAFLOW_EXECUTOR_H_

#include "common/status.h"
#include "dataflow/cluster.h"
#include "dataflow/job.h"
#include "dataflow/plan_profile.h"

namespace pregelix {

/// Executes a dataflow job on the simulated cluster and blocks until it
/// finishes. Admission first runs the static plan verifier
/// (dataflow/plan_verifier.h) against the cluster's budgets: an invalid
/// plan is rejected with InvalidArgument carrying the multi-line diagnostic
/// and never starts executing. Every (operator, partition) clone then runs
/// on its own task thread of the cluster's pool, all of them at once, like
/// Hyracks tasks; connectors move frames through FrameChannels. On the first
/// task failure the job aborts: the shared abort flag unblocks all channel
/// waits and the first error is returned.
///
/// `runtime_context` is passed through to every TaskContext (the per-job
/// state hook used by the Pregelix layer).
///
/// Every job is profiled: the executor initializes `profile` from the spec,
/// hands each task its (operator, partition) slot, meters every connector
/// edge once per frame, times each activation, and finalizes the tree
/// (skew + critical path) before returning.
Status RunJob(SimulatedCluster& cluster, const JobSpec& spec,
              void* runtime_context, PlanProfile& profile);

/// The same, with a job-local profile the caller does not read (load,
/// dump, checkpoint and recovery jobs).
Status RunJob(SimulatedCluster& cluster, const JobSpec& spec,
              void* runtime_context = nullptr);

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_EXECUTOR_H_
