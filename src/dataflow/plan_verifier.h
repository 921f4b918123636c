#ifndef PREGELIX_DATAFLOW_PLAN_VERIFIER_H_
#define PREGELIX_DATAFLOW_PLAN_VERIFIER_H_

#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "dataflow/job.h"

// Static plan verification (DESIGN.md §18).
//
// A pure analysis pass over the JobSpec dataflow IR, run before any task
// thread starts: structural invariants (index validity, acyclicity,
// single-writer inputs, connectivity, partition-count compatibility per
// connector kind), declared physical properties (sortedness-by-key,
// partitioned-by-key) propagated topologically through the connector graph
// and checked against each consumer's declared requirements, and budget
// feasibility against the byte-accounted memory budgets. Violations render
// as a multi-line, compiler-style diagnostic naming the offending
// operator/edge and the failed rule.
//
// Enforcement points: executor admission (RunJob), every kAuto plan switch
// (PlanOptimizer::ResolveAndPublishPlan — a rejected switch falls back to
// the previous plan), and `pregelix verify` / `explain --verify` offline.
// The pass never touches the tuple path; its cost is O(ops + connectors).

namespace pregelix {

class MetricsRegistry;

/// Budget inputs for the feasibility rule, normally derived from the
/// ClusterConfig the job will run under. worker_ram_bytes == 0 disables the
/// budget rule (specs verified without a target cluster).
struct PlanVerifyOptions {
  size_t worker_ram_bytes = 0;
  size_t frame_size = 32 * 1024;
};

/// The options RunJob admission uses for `config`'s cluster.
PlanVerifyOptions PlanVerifyOptionsFrom(const ClusterConfig& config);

/// One failed rule. `op` / `connector` locate the offender when the rule is
/// operator- resp. edge-scoped (-1 otherwise); `message` is a single
/// human-readable line naming both the location and what failed.
struct PlanViolation {
  std::string rule;
  std::string message;
  int op = -1;
  int connector = -1;
};

struct PlanVerifyResult {
  std::vector<PlanViolation> violations;

  bool ok() const { return violations.empty(); }
  /// "plan verification failed for job '<name>': N error(s)" plus one
  /// "  [rule-id] ..." line per violation; empty string when ok().
  std::string Render(const std::string& job_name) const;
};

/// Runs every rule; never short-circuits, so one pass reports all
/// violations (rules depending on a violated precondition are skipped for
/// the affected op/edge rather than cascading).
PlanVerifyResult VerifyPlan(const JobSpec& spec,
                            const PlanVerifyOptions& opts = {});

/// VerifyPlan rendered into Status::InvalidArgument (OK when clean).
Status VerifyPlanOrError(const JobSpec& spec,
                         const PlanVerifyOptions& opts = {});

/// Meters one verification: bumps `pregelix.verifier.checks` and, per
/// violation, `pregelix.verifier.violations{rule=...}`. No-op on null.
void CountVerification(MetricsRegistry* registry,
                       const PlanVerifyResult& result);

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_PLAN_VERIFIER_H_
