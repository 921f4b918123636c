#include "pregel/plan_optimizer.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/event_journal.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "dataflow/ops/sort.h"
#include "dataflow/plan_verifier.h"
#include "pregel/plans.h"
#include "pregel/state.h"
#include "server/job_registry.h"

namespace pregelix {

namespace {

// Decision thresholds (DESIGN.md §17 "Per-knob policy").

/// Enter the left-outer probe join when (live + messages) / |V| drops below
/// this...
constexpr double kSparseFrontierRatio = 0.20;
/// ...and return to the full-outer scan only once it rises above this (the
/// gap between the two is the hysteresis band).
constexpr double kDenseFrontierRatio = 0.35;
/// Below this ratio the probe join is entered at once, without the
/// confirmation streak: a full-outer scan of every vertex for a near-empty
/// frontier costs more than any flap could (the cooldown still applies).
constexpr double kNearEmptyFrontierRatio = 0.01;
/// Message volume past `kMessageScanRatio * ApproxVertexScanBytes` keeps the
/// sequential scan-merge: the superstep is message-bound either way, and
/// the probe join only adds random I/O.
constexpr double kMessageScanRatio = 0.5;
/// Combine-op skew (max/median wall) past this prefers the merged connector
/// (sender-side materialization absorbs the skewed receiver).
constexpr double kSkewThreshold = 4.0;
/// Proactive switches need the signal for this many consecutive
/// supersteps.
constexpr int kConfirmSupersteps = 2;
/// After any switch the knob is pinned for this many supersteps.
constexpr int kCooldownSupersteps = 2;

/// Installed by SetPlanDecisionOverrideForTesting. Read on the driver path
/// only (single-threaded per job); tests install before Run and clear after.
PlanDecisionOverride g_decision_override;

std::string FormatRatio(const char* tag, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s=%.3f", tag, v);
  return buf;
}

/// Whether the kDense group-by can run this superstep under `connector`.
/// The combiner must have a fixed width, and every partition's receive
/// array must fit the group-by budget beside one frame: one slot per vid of
/// its own, min_vid, min_vid + P, ..., max_vid (ConnectorSpec::Route puts
/// vid v on partition v mod P), with its presence bits. The send side
/// pre-combines into one slot per vid of the whole loaded range where that
/// array fits too; otherwise it sends its messages uncombined, in compute
/// order, which the merging connector cannot take. Sets each
/// PartitionState::dense_slots, ctx->dense_lo and ctx->dense_slots (0 for
/// the uncombined send side), which only a dense superstep reads.
bool DenseMailboxFits(JobRuntimeContext* ctx, GroupByConnector connector) {
  if (ctx->program == nullptr || ctx->cluster == nullptr) return false;
  const size_t width = ctx->program->MsgCombiner().width;
  const ClusterConfig& config = ctx->cluster->config();
  if (width == 0 || config.groupby_memory_bytes <= config.frame_size) {
    return false;
  }
  const uint64_t room = config.groupby_memory_bytes - config.frame_size;
  // Slots of the vids lo, lo + stride, ..., hi when their array fits the
  // room, else 0. hi - lo in unsigned arithmetic cannot overflow; the first
  // test bounds the slots so that ArrayBytes cannot either.
  auto fitting_slots = [&](int64_t lo, int64_t hi, uint64_t stride) {
    const uint64_t steps =
        (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / stride;
    if (steps >= room / width) return uint64_t{0};
    const uint64_t slots = steps + 1;
    return DenseGrouper::ArrayBytes(slots, width) <= room ? slots
                                                          : uint64_t{0};
  };
  const uint64_t stride = static_cast<uint64_t>(ctx->cluster->num_partitions());
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (PartitionState& p : ctx->partitions) {
    p.dense_slots = 0;
    if (p.min_vid > p.max_vid) continue;  // holds no vertex: no slots
    p.dense_slots = fitting_slots(p.min_vid, p.max_vid, stride);
    if (p.dense_slots == 0) return false;
    lo = std::min(lo, p.min_vid);
    hi = std::max(hi, p.max_vid);
  }
  if (lo > hi) return false;
  ctx->dense_lo = lo;
  ctx->dense_slots = fitting_slots(lo, hi, 1);
  return ctx->dense_slots > 0 || connector == GroupByConnector::kUnmerged;
}

}  // namespace

void SetPlanDecisionOverrideForTesting(PlanDecisionOverride fn) {
  g_decision_override = std::move(fn);
}

int64_t ApproxVertexScanBytes(int64_t num_vertices, int64_t num_edges) {
  // A full-outer pass reads every Vertex record: ~16 bytes of key + fixed
  // fields per vertex and ~8 bytes per edge entry. Only the order of
  // magnitude matters — it is compared against message volume.
  return num_vertices * 16 + num_edges * 8;
}

PlanOptimizer::PlanOptimizer(AutoKnobs knobs, uint64_t groupby_memory_bytes)
    : knobs_(knobs), groupby_memory_bytes_(groupby_memory_bytes) {}

void PlanOptimizer::Observe(const OptimizerFeedback& feedback) {
  fb_ = feedback;
  has_feedback_ = true;
}

bool PlanOptimizer::CooledDown(const KnobState& k, int64_t superstep) const {
  return superstep - k.last_switch > kCooldownSupersteps;
}

bool PlanOptimizer::Confirm(KnobState* k, int64_t superstep, bool wants_change,
                            bool reactive) {
  if (!wants_change) {
    k->pending_streak = 0;
    return false;
  }
  if (!CooledDown(*k, superstep)) return false;
  ++k->pending_streak;
  if (reactive || k->pending_streak >= kConfirmSupersteps) {
    k->pending_streak = 0;
    k->last_switch = superstep;
    return true;
  }
  return false;
}

PlanDecision PlanOptimizer::Decide(int64_t superstep) {
  if (superstep == decided_superstep_) return decided_;
  last_reactive_ = false;
  last_reason_ = superstep <= 1 || !has_feedback_ ? "initial" : "carry";

  if (superstep > 1 && has_feedback_) {
    const OptimizerFeedback& fb = fb_;
    // Only the knobs the job left at kAuto are decided; a static knob keeps
    // no streak, cooldown or reason, so nothing about it reaches the record.
    if (knobs_.join) {
      // --- join: frontier ratio with a [sparse, dense] hysteresis band. A
      // stall relaxes the edge to the middle of the band (reactive) — a
      // plan that is stalling does not get the benefit of the doubt.
      const double ratio =
          fb.num_vertices <= 0
              ? 1.0
              : static_cast<double>(Frontier(fb.live_vertices, fb.messages)) /
                    static_cast<double>(fb.num_vertices);
      const bool msg_dominant =
          static_cast<double>(fb.message_bytes) >=
          kMessageScanRatio *
              static_cast<double>(
                  ApproxVertexScanBytes(fb.num_vertices, fb.num_edges));
      const bool wants_loj =
          current_.join == JoinStrategy::kFullOuter && !msg_dominant &&
          (ratio < kSparseFrontierRatio ||
           (fb.stalled && ratio < kDenseFrontierRatio));
      const bool wants_foj =
          current_.join == JoinStrategy::kLeftOuter &&
          (ratio > kDenseFrontierRatio || msg_dominant ||
           (fb.stalled && ratio > kSparseFrontierRatio));
      const bool near_empty = wants_loj && ratio < kNearEmptyFrontierRatio;
      if (Confirm(&join_state_, superstep, wants_loj || wants_foj,
                  fb.stalled || near_empty)) {
        current_.join = wants_loj ? JoinStrategy::kLeftOuter
                                  : JoinStrategy::kFullOuter;
        ++switch_count_;
        last_reactive_ = fb.stalled;
        last_reason_ = fb.stalled       ? "stall"
                       : msg_dominant   ? "msg-volume"
                                        : FormatRatio("frontier", ratio);
      }
    }

    if (knobs_.connector) {
      // --- connector: merged (sender-materializing, one-pass preclustered
      // receive) is the relief valve for receive-side memory pressure and
      // skew. The relief hides the original signal, so the backswitch
      // requires the load driver — message volume — to fall to half of
      // what it was at switch time (hysteresis against relief-induced
      // flapping).
      const bool spill_over = fb.spill_bytes > groupby_memory_bytes_;
      const bool conn_reactive = spill_over || fb.stalled;
      const bool wants_merged =
          current_.connector == GroupByConnector::kUnmerged &&
          (fb.spill_count > 0 || fb.groupby_skew >= kSkewThreshold);
      const bool wants_unmerged =
          current_.connector == GroupByConnector::kMerged &&
          fb.spill_count == 0 && fb.groupby_skew < kSkewThreshold &&
          fb.message_bytes * 2 < connector_switch_load_;
      if (Confirm(&connector_state_, superstep, wants_merged || wants_unmerged,
                  /*reactive=*/wants_merged && conn_reactive)) {
        current_.connector = wants_merged ? GroupByConnector::kMerged
                                          : GroupByConnector::kUnmerged;
        if (wants_merged) connector_switch_load_ = fb.message_bytes;
        ++switch_count_;
        last_reactive_ = last_reactive_ || (wants_merged && conn_reactive);
        if (last_reason_ == "carry") {
          last_reason_ = wants_merged
                             ? (spill_over || fb.spill_count > 0 ? "spill"
                                                                 : "skew")
                             : "load-drop";
        }
      }
    }
  }

  PlanDecision out = current_;
  if (g_decision_override && g_decision_override(superstep, &out)) {
    // Adversarial/test schedule: the override's plan is adopted wholesale
    // (and becomes the baseline the next superstep diffs against).
    if (out != current_) ++switch_count_;
    current_ = out;
    last_reason_ = "override";
    last_reactive_ = false;
  }
  decided_superstep_ = superstep;
  decided_ = current_;
  return decided_;
}

VertexStorage ResolveStorageAtAdmission(const JobRuntimeContext& ctx) {
  if (ctx.job_config->storage != VertexStorage::kAuto) {
    return ctx.job_config->storage;
  }
  // Admission time has no runtime feedback; the one decisive signal is the
  // program's own declaration. Out-of-place LSM updates win under mutation
  // churn; in-place B-tree writes win everywhere else.
  return ctx.program != nullptr && ctx.program->MutatesGraph()
             ? VertexStorage::kLsmBTree
             : VertexStorage::kBTree;
}

PlanDecision ResolvePlanDecision(JobRuntimeContext* ctx) {
  const PregelixJobConfig& cfg = *ctx->job_config;
  // Without an optimizer (plan-generator unit tests, `pregelix verify`, a
  // job whose join and connector are static) each kAuto knob resolves to
  // the optimizer's superstep-1 plan: full outer, dense, unmerged.
  PlanDecision d;
  d.join = cfg.join == JoinStrategy::kAuto ? JoinStrategy::kFullOuter
                                           : cfg.join;
  d.groupby = cfg.groupby == GroupByStrategy::kAuto ? GroupByStrategy::kDense
                                                    : cfg.groupby;
  d.connector = cfg.groupby_connector == GroupByConnector::kAuto
                    ? GroupByConnector::kUnmerged
                    : cfg.groupby_connector;
  if (ctx->optimizer != nullptr) {
    const PlanDecision chosen = ctx->optimizer->Decide(ctx->current_superstep);
    if (cfg.join == JoinStrategy::kAuto) d.join = chosen.join;
    if (cfg.groupby == GroupByStrategy::kAuto) d.groupby = chosen.groupby;
    if (cfg.groupby_connector == GroupByConnector::kAuto) {
      d.connector = chosen.connector;
    }
  }
  // A verifier rejection pinned this superstep to the previous plan; the
  // pin wins over any re-derived choice (the pin is inert for any other
  // superstep, so no cleanup is needed when the driver advances).
  if (ctx->plan_pinned && ctx->pinned_superstep == ctx->current_superstep) {
    d = ctx->pinned_plan;
  }
  // kDense falls back to sort where its slot arrays do not apply.
  if (d.groupby == GroupByStrategy::kDense &&
      !DenseMailboxFits(ctx, d.connector)) {
    d.groupby = GroupByStrategy::kSort;
  }
  ctx->current_join = d.join;
  ctx->current_groupby = d.groupby;
  ctx->current_connector = d.connector;
  return d;
}

Status ResolveAndPublishPlan(JobRuntimeContext* ctx, MetricsRegistry* registry,
                             PlanDecisionRecord* record) {
  // A new superstep starts unpinned; a pin appears below only when the
  // verifier rejects this superstep's candidate plan.
  ctx->plan_pinned = false;
  PlanDecision d = ResolvePlanDecision(ctx);

  // --- Static verification gate (DESIGN.md §18) ---------------------------
  // Every plan switch is verified before anything is published; debug
  // builds verify every superstep. A rejected switch falls back to the
  // previous superstep's plan (known-good: it already passed admission and
  // ran), journals `plan.verify.reject`, and bumps pregelix.verifier.*.
  const bool switching = ctx->has_prev_plan && d != ctx->prev_plan;
#ifdef NDEBUG
  const bool verify_now = switching;
#else
  const bool verify_now = true;
#endif
  std::string verify_reject_reason;
  if (verify_now && ctx->cluster != nullptr) {
    const JobSpec candidate = BuildSuperstepJob(ctx);
    const PlanVerifyResult verdict =
        VerifyPlan(candidate, PlanVerifyOptionsFrom(ctx->cluster->config()));
    CountVerification(registry, verdict);
    if (!verdict.ok()) {
      if (!switching) {
        // Nothing known-good to fall back to — reject the job with the
        // full compiler-style diagnostic (RunJob admission would anyway).
        return Status::InvalidArgument(verdict.Render(candidate.name()));
      }
      const PlanDecision rejected = d;
      ctx->plan_pinned = true;
      ctx->pinned_superstep = ctx->current_superstep;
      ctx->pinned_plan = ctx->prev_plan;
      d = ResolvePlanDecision(ctx);  // applies the pin to ctx->current_*
      std::string rules;
      for (const PlanViolation& v : verdict.violations) {
        if (!rules.empty()) rules += ",";
        rules += v.rule;
      }
      EventJournal::Global().Append(
          "plan.verify.reject", ctx->job_id, ctx->current_superstep,
          {{"rejected", PlanDecisionString(rejected)},
           {"fallback", PlanDecisionString(d)},
           {"rules", rules}});
      if (registry != nullptr) {
        registry
            ->GetCounter("pregelix.verifier.rejects",
                         {{"job", ctx->job_config->name}})
            ->Increment();
      }
      PLOG(Warn) << "plan verifier rejected switch to "
                 << PlanDecisionString(rejected) << " at superstep "
                 << ctx->current_superstep << " (" << rules
                 << "); keeping " << PlanDecisionString(d);
      verify_reject_reason = "verify-reject:" + rules;
    }
  }

  record->superstep = ctx->current_superstep;
  record->plan = d;
  if (!verify_reject_reason.empty()) {
    record->reactive = false;
    record->reason = verify_reject_reason;
  } else if (ctx->optimizer != nullptr) {
    record->reactive = ctx->optimizer->last_reactive();
    record->reason = ctx->optimizer->last_reason();
  } else {
    record->reactive = false;
    record->reason = "static";
  }

  struct Change {
    const char* knob;
    std::string from, to;
  };
  std::vector<Change> changes;
  if (ctx->has_prev_plan) {
    if (d.join != ctx->prev_plan.join) {
      changes.push_back({"join", JoinStrategyName(ctx->prev_plan.join),
                         JoinStrategyName(d.join)});
    }
    if (d.groupby != ctx->prev_plan.groupby) {
      changes.push_back({"groupby",
                         GroupByStrategyName(ctx->prev_plan.groupby),
                         GroupByStrategyName(d.groupby)});
    }
    if (d.connector != ctx->prev_plan.connector) {
      changes.push_back({"connector",
                         GroupByConnectorName(ctx->prev_plan.connector),
                         GroupByConnectorName(d.connector)});
    }
  }
  record->switched.clear();
  for (const Change& c : changes) {
    if (!record->switched.empty()) record->switched += ",";
    record->switched += c.knob;
  }

  // The switch boundary is a fault point: torture schedules crash exactly
  // here to prove recovery crosses plan switches. It fires before anything
  // is published, so a crashed switch is never journaled as having run.
  if (!changes.empty()) {
    PREGELIX_RETURN_NOT_OK(fault::MaybeFail("pregel.plan.switch"));
  }

  const std::string& job = ctx->job_config->name;
  if (registry != nullptr) {
    registry->GetCounter("pregelix.optimizer.decisions", {{"job", job}})
        ->Increment();
    registry->GetGauge("pregelix.optimizer.left_outer_join", {{"job", job}})
        ->Set(d.join == JoinStrategy::kLeftOuter ? 1 : 0);
    for (const Change& c : changes) {
      registry
          ->GetCounter("pregelix.optimizer.switches",
                       {{"job", job}, {"knob", c.knob}})
          ->Increment();
    }
    if (!changes.empty() && record->reactive) {
      registry
          ->GetCounter("pregelix.optimizer.reactive_switches", {{"job", job}})
          ->Increment();
    }
  }
  for (const Change& c : changes) {
    EventJournal::Global().Append(
        "plan.switch", ctx->job_id, ctx->current_superstep,
        {{"knob", c.knob},
         {"from", c.from},
         {"to", c.to},
         {"reason", record->reason},
         {"reactive", record->reactive ? "true" : "false"},
         {"plan", PlanDecisionString(d)}});
    PLOG(Info) << "plan switch [" << job << "] superstep "
               << ctx->current_superstep << ": " << c.knob << " " << c.from
               << " -> " << c.to << " (" << record->reason << ")";
  }
  server::JobStatusRegistry::Global().OnPlanDecision(
      ctx->job_id, PlanDecisionString(d),
      static_cast<int>(changes.size()));

  ctx->prev_plan = d;
  ctx->has_prev_plan = true;
  return Status::OK();
}

const char* JoinStrategyName(JoinStrategy join) {
  switch (join) {
    case JoinStrategy::kFullOuter:
      return "fullouter";
    case JoinStrategy::kLeftOuter:
      return "leftouter";
    case JoinStrategy::kAuto:
      return "auto";
  }
  return "?";
}

const char* GroupByStrategyName(GroupByStrategy groupby) {
  switch (groupby) {
    case GroupByStrategy::kSort:
      return "sort";
    case GroupByStrategy::kHashSort:
      return "hashsort";
    case GroupByStrategy::kAuto:
      return "auto";
    case GroupByStrategy::kDense:
      return "dense";
  }
  return "?";
}

const char* GroupByConnectorName(GroupByConnector connector) {
  switch (connector) {
    case GroupByConnector::kUnmerged:
      return "unmerged";
    case GroupByConnector::kMerged:
      return "merged";
    case GroupByConnector::kAuto:
      return "auto";
  }
  return "?";
}

const char* VertexStorageName(VertexStorage storage) {
  switch (storage) {
    case VertexStorage::kBTree:
      return "btree";
    case VertexStorage::kLsmBTree:
      return "lsm";
    case VertexStorage::kAuto:
      return "auto";
  }
  return "?";
}

std::string PlanDecisionString(const PlanDecision& d) {
  std::string out = JoinStrategyName(d.join);
  out += "/";
  out += GroupByStrategyName(d.groupby);
  out += "/";
  out += GroupByConnectorName(d.connector);
  return out;
}

}  // namespace pregelix
