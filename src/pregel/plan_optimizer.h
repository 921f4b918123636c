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
// cache-hit ratio, and whether the stall watchdog fired — and re-chooses
// among the paper's physical variants at every superstep boundary:
//
//   join       Vid-merge full-outer scan  vs  left-outer Vertex probe
//   group-by   sort-based                 vs  hash pre-aggregation
//   connector  unmerged (pipelined)       vs  merged (preclustered receive)
//   storage    B-tree vs LSM — admission time only (indexes are built once)
//
// Every knob carries hysteresis: a proactive switch needs the signal to hold
// for `confirm_supersteps` consecutive supersteps, and any switch opens a
// `cooldown_supersteps` window during which the knob cannot switch back.
// Reactive switches (watchdog stall, spill bytes past the budget-derived
// threshold) skip the confirmation streak but still respect the cooldown, so
// the chooser cannot oscillate even under an adversarial signal.

namespace pregelix {

struct JobRuntimeContext;
class MetricsRegistry;

/// The three per-superstep-switchable knobs, fully resolved (never an
/// adaptive/auto value).
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
/// from GS, SuperstepStats, the PlanProfile when profiling is on, and the
/// stall watchdog).
struct OptimizerFeedback {
  int64_t superstep = 0;  ///< the superstep these observations describe
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  int64_t live_vertices = 0;
  int64_t messages = 0;       ///< combined messages produced (count)
  int64_t message_bytes = 0;  ///< combined message payload volume
  uint64_t bytes_shuffled = 0;
  uint64_t spill_count = 0;
  uint64_t spill_bytes = 0;
  double cache_hit_ratio = 1.0;
  /// Combine-op worker skew (max/median wall) from the plan profile; 1.0
  /// when unknown (profiling off).
  double groupby_skew = 1.0;
  /// Combine-op input tuples (plan profile) and the combined messages it
  /// wrote; 0 when unknown (profiling off). Their ratio is the combiner
  /// reduction factor.
  uint64_t combine_tuples_in = 0;
  uint64_t combine_tuples_out = 0;
  /// The stall watchdog flagged this superstep while it ran.
  bool stalled = false;
  /// The plan these observations were made under.
  PlanDecision plan;
};

/// Tuning thresholds. Defaults are what DESIGN.md documents; tests construct
/// edge cases explicitly.
struct PlanOptimizerOptions {
  /// Per-operator group-by memory budget; the reactive spill threshold is
  /// `spill_budget_factor` times this.
  uint64_t groupby_memory_bytes = 32ull << 20;
  /// Enter the left-outer probe join when (live + messages) / |V| drops
  /// below this...
  double sparse_frontier_ratio = 0.20;
  /// ...and return to the full-outer scan only once it rises above this
  /// (the gap between the two is the hysteresis band).
  double dense_frontier_ratio = 0.35;
  /// Message volume past `message_scan_ratio * approx_scan_bytes` keeps the
  /// sequential scan-merge: the superstep is message-bound either way, and
  /// the probe join only adds random I/O (the legacy heuristic's blind
  /// spot).
  double message_scan_ratio = 0.5;
  /// Reactive spill threshold = factor * groupby_memory_bytes.
  double spill_budget_factor = 1.0;
  /// Combine-op skew (max/median wall) past this prefers the merged
  /// connector (sender-side materialization absorbs the skewed receiver).
  double skew_threshold = 4.0;
  /// Hash pre-aggregation is the optimistic start; after a spill demotes
  /// the group-by to sort, re-promotion to hash requires the combiner
  /// reduction (tuples in / tuples out) to reach this.
  double hash_reduction_threshold = 2.0;
  /// Proactive switches need the signal for this many consecutive
  /// supersteps.
  int confirm_supersteps = 2;
  /// After any switch the knob is pinned for this many supersteps.
  int cooldown_supersteps = 2;
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

class PlanOptimizer {
 public:
  explicit PlanOptimizer(PlanOptimizerOptions opts = {});

  /// Feeds the observations of a completed superstep. Called by the driver
  /// at each barrier, before deciding the next superstep.
  void Observe(const OptimizerFeedback& feedback);

  /// Chooses the plan for `superstep`. Idempotent per superstep: repeated
  /// calls with the same superstep return the cached decision without
  /// advancing hysteresis state.
  PlanDecision Decide(int64_t superstep);

  /// True when the most recent Decide switched reactively (stall / spill
  /// threshold) rather than via the confirmation streak.
  bool last_reactive() const { return last_reactive_; }
  /// Short cause tag of the most recent Decide.
  const std::string& last_reason() const { return last_reason_; }

  /// Total knob switches so far (a join+connector switch in one superstep
  /// counts 2).
  int64_t switch_count() const { return switch_count_; }

  const PlanOptimizerOptions& options() const { return opts_; }

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

  PlanOptimizerOptions opts_;
  bool has_feedback_ = false;
  OptimizerFeedback fb_;  ///< latest observations

  PlanDecision current_;
  KnobState join_state_, groupby_state_, connector_state_;
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

/// The legacy single-knob `JoinStrategy::kAdaptive` heuristic, message-bytes
/// aware: left-outer only when the frontier is sparse AND the combined
/// message volume does not rival the sequential scan the full-outer plan
/// would do anyway (heavy-fanout supersteps are message-bound; probing only
/// adds random I/O and Vid maintenance).
JoinStrategy LegacyAdaptiveJoin(int64_t superstep, int64_t live_vertices,
                                int64_t messages, int64_t message_bytes,
                                int64_t num_vertices, int64_t num_edges);

/// The scan-volume approximation shared by the legacy heuristic and the
/// optimizer's message-dominance guard: what a full-outer pass over the
/// Vertex relation roughly reads, from the graph shape alone.
int64_t ApproxVertexScanBytes(int64_t num_vertices, int64_t num_edges);

/// Admission-time storage resolution: static hints pass through; kAuto picks
/// LSM when the program declares graph mutations (out-of-place updates win
/// under churn), B-tree otherwise. Deterministic, so a recovering driver
/// process re-derives the same choice.
VertexStorage ResolveStorageAtAdmission(const JobRuntimeContext& ctx);

/// Resolves the three switchable knobs for ctx->current_superstep and writes
/// them into ctx->current_{join,groupby,connector}. Static hints pass
/// through; kAdaptive join uses the legacy heuristic; kAuto knobs ask
/// ctx->optimizer (falling back to the same defaults when no optimizer is
/// installed, e.g. plan-generator unit tests). Pure apart from the
/// optimizer's own memoized Decide.
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
