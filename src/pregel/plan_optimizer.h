#ifndef PREGELIX_PREGEL_PLAN_OPTIMIZER_H_
#define PREGELIX_PREGEL_PLAN_OPTIMIZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "pregel/job_config.h"

// Feedback-driven per-superstep plan chooser (the cost-based optimizer the
// paper's Section 9 leaves as future work; DESIGN.md "Adaptive plan
// optimization").
//
// The chooser consumes the *previous* superstep's observations — live-vertex
// ratio, combined message count and bytes, spill count/bytes, group-by skew,
// and whether the stall watchdog fired — and re-chooses among the paper's
// physical variants at every superstep boundary:
//
//   join       Vid-merge full-outer scan  vs  left-outer Vertex probe
//   connector  unmerged (pipelined)       vs  merged (preclustered receive)
//   storage    B-tree vs LSM — admission time only (indexes are built once)
//
// It decides only the knobs the job left at kAuto. The group-by is not
// decided: kAuto resolves as the default hint does, dense where the §4 fit
// rule admits it and sort otherwise.
//
// Every knob carries hysteresis: a proactive switch needs the signal to hold
// for two consecutive supersteps, and any switch opens a two-superstep
// cooldown window during which the knob cannot switch back. Reactive
// switches (watchdog stall, spill bytes past the group-by budget) skip the
// confirmation streak but still respect the cooldown, so the chooser cannot
// oscillate even under an adversarial signal; so does a switch to the probe
// join on a near-empty frontier (ratio below 0.01).

namespace pregelix {

struct JobRuntimeContext;
class MetricsRegistry;

/// What a superstep leaves for the next one to activate: live vertices plus
/// message receivers (a live receiver counts twice). The join decision
/// divides it by |V|; unlike the live count it is non-zero whenever
/// messages were sent.
inline int64_t Frontier(int64_t live_vertices, int64_t messages) {
  return live_vertices + messages;
}

/// The three per-superstep-switchable knobs, fully resolved (never an
/// auto value).
struct PlanDecision {
  JoinStrategy join = JoinStrategy::kFullOuter;
  GroupByStrategy groupby = GroupByStrategy::kSort;
  GroupByConnector connector = GroupByConnector::kUnmerged;

  bool operator==(const PlanDecision& o) const {
    return join == o.join && groupby == o.groupby && connector == o.connector;
  }
  bool operator!=(const PlanDecision& o) const { return !(*this == o); }
};

/// What one completed superstep tells the chooser (assembled by the driver
/// from GS, SuperstepStats, the superstep's PlanProfile, and the stall
/// watchdog).
struct OptimizerFeedback {
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  int64_t live_vertices = 0;
  int64_t messages = 0;       ///< combined messages produced (count)
  int64_t message_bytes = 0;  ///< combined message payload volume
  uint64_t spill_count = 0;
  uint64_t spill_bytes = 0;
  /// Combine-op worker skew (max/median wall) from the plan profile; 1.0
  /// when no combine operator ran.
  double groupby_skew = 1.0;
  /// The stall watchdog flagged this superstep while it ran.
  bool stalled = false;
};

/// One driver-visible decision: what ran at `superstep`, whether it differed
/// from the previous superstep, and why.
struct PlanDecisionRecord {
  int64_t superstep = 0;
  PlanDecision plan;
  bool reactive = false;
  /// Comma-separated knob names that changed ("join,connector"); empty when
  /// the previous plan carried over.
  std::string switched;
  std::string reason;  ///< short cause tag ("frontier=0.04", "stall", ...)
};

/// The knobs a job left at kAuto, which are the only ones the optimizer
/// decides (storage is resolved at admission, the group-by never).
struct AutoKnobs {
  bool join = true;
  bool connector = true;
};

class PlanOptimizer {
 public:
  /// `groupby_memory_bytes` is the per-operator group-by budget; spill
  /// bytes past it make the switch to the merged connector reactive. The
  /// other thresholds are the constants DESIGN.md §17 documents.
  explicit PlanOptimizer(AutoKnobs knobs = {},
                         uint64_t groupby_memory_bytes = 32ull << 20);

  /// Feeds the observations of a completed superstep. Called by the driver
  /// at each barrier, before deciding the next superstep.
  void Observe(const OptimizerFeedback& feedback);

  /// Chooses the plan for `superstep`. Idempotent per superstep: repeated
  /// calls with the same superstep return the cached decision without
  /// advancing hysteresis state. A knob the job set statically keeps its
  /// superstep-1 value, unless the test override changes it.
  PlanDecision Decide(int64_t superstep);

  /// True when the most recent Decide switched reactively (stall / spill
  /// threshold) rather than via the confirmation streak.
  bool last_reactive() const { return last_reactive_; }
  /// Short cause tag of the most recent Decide.
  const std::string& last_reason() const { return last_reason_; }

  /// Total knob switches so far (a join+connector switch in one superstep
  /// counts 2).
  int64_t switch_count() const { return switch_count_; }

 private:
  struct KnobState {
    int pending_streak = 0;       ///< consecutive supersteps wanting a change
    int64_t last_switch = -1000;  ///< superstep of the last switch
  };

  /// True when the knob may switch at `superstep` given its cooldown.
  bool CooledDown(const KnobState& k, int64_t superstep) const;
  /// Streak bookkeeping shared by all knobs: returns true when the switch
  /// should be taken now.
  bool Confirm(KnobState* k, int64_t superstep, bool wants_change,
               bool reactive);

  AutoKnobs knobs_;
  uint64_t groupby_memory_bytes_;
  bool has_feedback_ = false;
  OptimizerFeedback fb_;  ///< latest observations

  /// Superstep 1's plan is the default one: full outer, dense, unmerged.
  PlanDecision current_{JoinStrategy::kFullOuter, GroupByStrategy::kDense,
                        GroupByConnector::kUnmerged};
  KnobState join_state_, connector_state_;
  /// Message volume at the moment the connector switched to merged; the
  /// backswitch needs the load to halve (the merged connector hides the
  /// spill signal that caused the switch).
  int64_t connector_switch_load_ = 0;

  int64_t decided_superstep_ = -1;
  PlanDecision decided_;
  bool last_reactive_ = false;
  std::string last_reason_ = "initial";
  int64_t switch_count_ = 0;
};

/// Test-only override: when set, every kAuto decision is offered to `fn`
/// (superstep, in/out decision); returning true forces the (possibly
/// adversarial) plan it wrote. Pass nullptr to clear. Not thread-safe
/// against in-flight jobs — install before Run, clear after.
using PlanDecisionOverride =
    std::function<bool(int64_t superstep, PlanDecision* decision)>;
void SetPlanDecisionOverrideForTesting(PlanDecisionOverride fn);

/// The scan-volume approximation behind the optimizer's message-dominance
/// guard: what a full-outer pass over the Vertex relation roughly reads,
/// from the graph shape alone.
int64_t ApproxVertexScanBytes(int64_t num_vertices, int64_t num_edges);

/// Admission-time storage resolution: static hints pass through; kAuto picks
/// LSM when the program declares graph mutations (out-of-place updates win
/// under churn), B-tree otherwise. Deterministic, so a recovering driver
/// process re-derives the same choice.
VertexStorage ResolveStorageAtAdmission(const JobRuntimeContext& ctx);

/// Resolves the three switchable knobs for ctx->current_superstep and writes
/// them into ctx->current_{join,groupby,connector}. Static hints pass
/// through; kAuto knobs ask ctx->optimizer, or resolve to its superstep-1
/// plan (fullouter/dense/unmerged) when no optimizer is installed
/// (plan-generator unit tests, `pregelix verify`). A dense group-by falls
/// back to sort where its slot arrays do not fit (DESIGN.md §4). Pure apart
/// from the optimizer's own memoized Decide.
PlanDecision ResolvePlanDecision(JobRuntimeContext* ctx);

/// Driver-path resolution: ResolvePlanDecision plus the observable effects —
/// the `pregel.plan.switch` fault point when the plan changed, a
/// `plan.switch` EventJournal event per switched knob, the
/// `pregelix.optimizer.*` metrics, and the JobStatusRegistry publish. Fills
/// `record` for JobResult::plan_decisions / `pregelix explain`.
///
/// Every plan switch passes the static verifier (dataflow/plan_verifier.h)
/// before publication — debug builds verify every superstep. A rejected
/// switch pins the previous superstep's plan (JobRuntimeContext::pinned_*),
/// journals `plan.verify.reject`, bumps `pregelix.verifier.rejects`, and the
/// superstep proceeds under the known-good plan.
Status ResolveAndPublishPlan(JobRuntimeContext* ctx, MetricsRegistry* registry,
                             PlanDecisionRecord* record);

// Canonical knob spellings (CLI flags, events, /jobs/<id>, explain).
const char* JoinStrategyName(JoinStrategy join);
const char* GroupByStrategyName(GroupByStrategy groupby);
const char* GroupByConnectorName(GroupByConnector connector);
const char* VertexStorageName(VertexStorage storage);
/// "fullouter/sort/unmerged"-style compact plan string.
std::string PlanDecisionString(const PlanDecision& d);

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_PLAN_OPTIMIZER_H_
