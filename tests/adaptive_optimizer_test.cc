// Adaptive plan optimizer suite (DESIGN.md "Adaptive plan optimization").
//
// Unit half: the decision functions in isolation — the legacy kAdaptive
// heuristic (including the message-volume blind spot it used to have), the
// PlanOptimizer's threshold edges, confirmation streaks, cooldowns, and
// reactive (stall/spill) switches, all driven by hand-built
// OptimizerFeedback records; plus admission-time storage resolution and the
// ResolvePlanDecision fallback paths.
//
// End-to-end half: a connected-components run under all-kAuto knobs on a
// "lollipop" graph (a star head that converges fast, then a long path tail
// that keeps the frontier at 2-3 vertices for dozens of supersteps). The
// sparse tail makes the full-outer -> left-outer join flip deterministic,
// and the test reads it back from all three observable channels: the
// JobResult decision trail, the `plan.switch` event journal, and the
// `pregelix.optimizer.*` metrics.

#include "pregel/plan_optimizer.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"
#include "pregel/state.h"

namespace pregelix {
namespace {

// ---------------------------------------------------------------------------
// Legacy kAdaptive heuristic

TEST(ApproxVertexScanBytesTest, TracksGraphShape) {
  // The constants are a contract: both the legacy heuristic and the
  // optimizer's message-dominance guard compare message volume against
  // exactly this approximation.
  EXPECT_EQ(ApproxVertexScanBytes(0, 0), 0);
  EXPECT_EQ(ApproxVertexScanBytes(1000, 5000), 1000 * 16 + 5000 * 8);
  EXPECT_LT(ApproxVertexScanBytes(100, 100), ApproxVertexScanBytes(100, 200));
}

TEST(LegacyAdaptiveJoinTest, AlwaysScansInEarlySupersteps) {
  // Superstep 1: everything is live, nothing is known — scan.
  EXPECT_EQ(LegacyAdaptiveJoin(0, 1, 1, 0, 1000, 5000),
            JoinStrategy::kFullOuter);
  EXPECT_EQ(LegacyAdaptiveJoin(1, 1, 1, 0, 1000, 5000),
            JoinStrategy::kFullOuter);
}

TEST(LegacyAdaptiveJoinTest, FrontierFifthOfGraphIsTheScanBoundary) {
  // frontier * 5 >= |V| keeps the scan; one vertex under flips to probe.
  EXPECT_EQ(LegacyAdaptiveJoin(5, 100, 100, 0, 1000, 5000),
            JoinStrategy::kFullOuter);
  EXPECT_EQ(LegacyAdaptiveJoin(5, 100, 99, 0, 1000, 5000),
            JoinStrategy::kLeftOuter);
}

TEST(LegacyAdaptiveJoinTest, MessageVolumeKeepsTheScanOnSparseFrontiers) {
  // The old heuristic's blind spot: a sparse frontier with heavy fanout
  // (few destinations, large combined payloads) is message-bound — the
  // probe join saves the sequential scan but pays a random descent per key
  // while still moving every message byte. message_bytes*2 >= approx scan
  // bytes must stay with the merge scan.
  const int64_t scan = ApproxVertexScanBytes(1000, 5000);  // 56000
  EXPECT_EQ(LegacyAdaptiveJoin(5, 10, 10, scan / 2, 1000, 5000),
            JoinStrategy::kFullOuter)
      << "message-bound superstep picked the probe join (the regression "
         "this guard exists for)";
  // Just under the threshold: the probe join is genuinely cheaper.
  EXPECT_EQ(LegacyAdaptiveJoin(5, 10, 10, scan / 2 - 1, 1000, 5000),
            JoinStrategy::kLeftOuter);
}

// ---------------------------------------------------------------------------
// PlanOptimizer decision logic (fake feedback feed)

/// Baseline feedback: 1000 vertices, 5000 edges, negligible message volume.
/// Scan approximation is 56000 bytes, so the default message-dominance
/// threshold sits at 28000.
OptimizerFeedback Feedback(int64_t superstep, int64_t live, int64_t messages) {
  OptimizerFeedback fb;
  fb.superstep = superstep;
  fb.num_vertices = 1000;
  fb.num_edges = 5000;
  fb.live_vertices = live;
  fb.messages = messages;
  fb.message_bytes = 64;
  return fb;
}

TEST(PlanOptimizerTest, DefaultsBeforeAnyFeedback) {
  PlanOptimizer opt;
  const PlanDecision d = opt.Decide(1);
  EXPECT_EQ(d.join, JoinStrategy::kFullOuter);
  // Hash pre-aggregation is the optimistic start (within budget it is
  // never worse than sort; a spill demotes it reactively).
  EXPECT_EQ(d.groupby, GroupByStrategy::kHashSort);
  EXPECT_EQ(d.connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(opt.last_reason(), "initial");
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, JoinSwitchRequiresConfirmationStreak) {
  PlanOptimizer opt;
  opt.Observe(Feedback(1, 50, 50));  // ratio 0.1 < 0.20
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter) << "streak of 1";
  opt.Observe(Feedback(2, 50, 50));
  EXPECT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter) << "streak of 2";
  EXPECT_EQ(opt.switch_count(), 1);
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason().rfind("frontier", 0), 0u) << opt.last_reason();
}

TEST(PlanOptimizerTest, SparseBoundaryIsExclusive) {
  PlanOptimizer opt;
  // ratio == sparse_frontier_ratio exactly (200/1000 = 0.20): not sparse.
  for (int64_t ss = 1; ss <= 6; ++ss) {
    opt.Observe(Feedback(ss, 100, 100));
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, HysteresisBandHoldsTheProbeJoin) {
  PlanOptimizer opt;
  opt.Observe(Feedback(1, 50, 50));
  opt.Decide(2);
  opt.Observe(Feedback(2, 50, 50));
  ASSERT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter);

  // Ratio 0.30 sits inside the [0.20, 0.35] band: no backswitch, ever.
  for (int64_t ss = 3; ss <= 8; ++ss) {
    opt.Observe(Feedback(ss, 200, 100));
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kLeftOuter)
        << "band ratio flapped at superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 1);

  // Ratio 0.50 is past the dense edge: back to the scan after the streak.
  opt.Observe(Feedback(9, 400, 100));
  EXPECT_EQ(opt.Decide(10).join, JoinStrategy::kLeftOuter);
  opt.Observe(Feedback(10, 400, 100));
  EXPECT_EQ(opt.Decide(11).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.switch_count(), 2);
}

TEST(PlanOptimizerTest, MessageVolumeBlocksTheProbeJoin) {
  PlanOptimizer opt;
  for (int64_t ss = 1; ss <= 6; ++ss) {
    OptimizerFeedback fb = Feedback(ss, 25, 25);  // ratio 0.05: very sparse
    fb.message_bytes = 30000;                     // >= 0.5 * 56000: dominant
    opt.Observe(fb);
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "message-bound superstep " << ss + 1 << " picked the probe join";
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, StallSwitchesReactivelyButRespectsCooldown) {
  PlanOptimizer opt;
  // Ratio 0.30 would not proactively switch (inside the band), but a stall
  // relaxes the edge and skips the confirmation streak.
  OptimizerFeedback fb = Feedback(1, 200, 100);
  fb.stalled = true;
  opt.Observe(fb);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kLeftOuter);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason(), "stall");

  // The new plan stalls too at a dense ratio: wants to switch back
  // reactively, but the cooldown pins the knob until superstep 5.
  for (int64_t ss = 2; ss <= 3; ++ss) {
    OptimizerFeedback dense = Feedback(ss, 400, 100);
    dense.stalled = true;
    opt.Observe(dense);
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kLeftOuter)
        << "cooldown violated at superstep " << ss + 1;
  }
  OptimizerFeedback dense = Feedback(4, 400, 100);
  dense.stalled = true;
  opt.Observe(dense);
  EXPECT_EQ(opt.Decide(5).join, JoinStrategy::kFullOuter);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.switch_count(), 2);
}

TEST(PlanOptimizerTest, AlternatingSignalNeverConfirms) {
  PlanOptimizer opt;
  // Adversarial feed: the frontier alternates sparse/dense every superstep.
  // The confirmation streak resets on every flip, so the plan never moves.
  for (int64_t ss = 1; ss <= 12; ++ss) {
    opt.Observe(ss % 2 == 1 ? Feedback(ss, 25, 25)     // ratio 0.05
                            : Feedback(ss, 900, 50));  // ratio 0.95
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "oscillating signal switched the join at superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, GroupBySpillDemotesHashAndReductionRepromotes) {
  PlanOptimizerOptions opts;
  opts.groupby_memory_bytes = 1u << 20;
  PlanOptimizer opt(opts);

  // Spill bytes past the budget: reactive demotion from the optimistic
  // hash start to sort (which degrades gracefully to runs), in a single
  // superstep — no confirmation streak needed.
  OptimizerFeedback spilled = Feedback(1, 500, 100);
  spilled.spill_count = 3;
  spilled.spill_bytes = 3u << 20;  // 3x the budget
  opt.Observe(spilled);
  EXPECT_EQ(opt.Decide(2).groupby, GroupByStrategy::kSort);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason(), "spill");

  // Re-promotion must be earned: the combiner folds 10:1 with nothing
  // spilling, but the switch waits for the cooldown (pinned through
  // superstep 4) plus the two-superstep confirmation streak.
  OptimizerFeedback fb = Feedback(2, 500, 100);
  fb.combine_tuples_in = 1000;
  fb.combine_tuples_out = 100;
  for (int64_t ss = 2; ss <= 5; ++ss) {
    fb.superstep = ss;
    opt.Observe(fb);
    EXPECT_EQ(opt.Decide(ss + 1).groupby,
              ss < 5 ? GroupByStrategy::kSort : GroupByStrategy::kHashSort)
        << "superstep " << ss + 1;
  }
  EXPECT_FALSE(opt.last_reactive());
}

TEST(PlanOptimizerTest, GroupByStaysSortWithoutReductionEvidence) {
  PlanOptimizerOptions opts;
  opts.groupby_memory_bytes = 1u << 20;
  PlanOptimizer opt(opts);
  OptimizerFeedback spilled = Feedback(1, 500, 100);
  spilled.spill_bytes = 3u << 20;
  opt.Observe(spilled);
  ASSERT_EQ(opt.Decide(2).groupby, GroupByStrategy::kSort);

  // Clean supersteps but a combiner that barely folds (1.5:1, below the
  // 2.0 re-promotion threshold): sort holds indefinitely.
  OptimizerFeedback weak = Feedback(2, 500, 100);
  weak.combine_tuples_in = 300;
  weak.combine_tuples_out = 200;
  for (int64_t ss = 2; ss <= 10; ++ss) {
    weak.superstep = ss;
    opt.Observe(weak);
    EXPECT_EQ(opt.Decide(ss + 1).groupby, GroupByStrategy::kSort)
        << "superstep " << ss + 1;
  }
}

TEST(PlanOptimizerTest, ConnectorBackswitchNeedsTheLoadToHalve) {
  PlanOptimizer opt;
  // Heavy combine-op skew prefers the merged (sender-materializing)
  // connector; no spill and no stall, so this is a proactive streak switch.
  OptimizerFeedback skewed = Feedback(1, 500, 100);
  skewed.groupby_skew = 5.0;
  skewed.message_bytes = 1000;
  opt.Observe(skewed);
  EXPECT_EQ(opt.Decide(2).connector, GroupByConnector::kUnmerged);
  skewed.superstep = 2;
  opt.Observe(skewed);
  EXPECT_EQ(opt.Decide(3).connector, GroupByConnector::kMerged);
  EXPECT_FALSE(opt.last_reactive());

  // Clean again, but message volume has only dropped to 600 of the 1000 at
  // switch time: the merged connector hides the signal that caused the
  // switch, so the backswitch demands the load halve. Stays merged.
  for (int64_t ss = 3; ss <= 8; ++ss) {
    OptimizerFeedback clean = Feedback(ss, 500, 100);
    clean.message_bytes = 600;
    opt.Observe(clean);
    EXPECT_EQ(opt.Decide(ss + 1).connector, GroupByConnector::kMerged)
        << "backswitched without the load halving at superstep " << ss + 1;
  }

  // Load at 400 (< half of 1000): backswitch after the streak.
  OptimizerFeedback light = Feedback(9, 500, 100);
  light.message_bytes = 400;
  opt.Observe(light);
  EXPECT_EQ(opt.Decide(10).connector, GroupByConnector::kMerged);
  light.superstep = 10;
  opt.Observe(light);
  EXPECT_EQ(opt.Decide(11).connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(opt.last_reason(), "load-drop");
}

TEST(PlanOptimizerTest, DecideIsMemoizedPerSuperstep) {
  PlanOptimizer opt;
  opt.Observe(Feedback(1, 50, 50));  // sparse: wants the probe join
  // The driver resolves the plan twice per superstep (publish path + job
  // build); repeated Decide calls must not advance the streak.
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter);
  opt.Observe(Feedback(2, 50, 50));
  EXPECT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter)
      << "streak should reach the confirm threshold exactly at the second "
         "superstep";
}

TEST(PlanOptimizerTest, OverrideHookForcesAdversarialPlans) {
  PlanOptimizer opt;
  SetPlanDecisionOverrideForTesting([](int64_t superstep, PlanDecision* d) {
    d->join = superstep % 2 == 0 ? JoinStrategy::kLeftOuter
                                 : JoinStrategy::kFullOuter;
    d->connector = GroupByConnector::kMerged;
    return true;
  });
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kLeftOuter);
  EXPECT_EQ(opt.Decide(2).connector, GroupByConnector::kMerged);
  EXPECT_EQ(opt.last_reason(), "override");
  EXPECT_EQ(opt.Decide(3).join, JoinStrategy::kFullOuter);
  SetPlanDecisionOverrideForTesting(nullptr);
  // Cleared: the optimizer's own (carried) plan is back in charge.
  EXPECT_EQ(opt.Decide(4).join, JoinStrategy::kFullOuter);
  EXPECT_NE(opt.last_reason(), "override");
}

// ---------------------------------------------------------------------------
// Resolution helpers (storage admission, ResolvePlanDecision fallbacks)

/// Minimal program whose only interesting property is MutatesGraph().
class FakeProgram : public PregelProgram {
 public:
  explicit FakeProgram(bool mutates) : mutates_(mutates) {}
  Status InitialVertex(int64_t, const std::vector<int64_t>&,
                       std::string*) override {
    return Status::OK();
  }
  Status Compute(const ComputeInput&, ComputeOutput*) override {
    return Status::OK();
  }
  GroupCombiner MsgCombiner() const override { return ListMsgCombiner(); }
  Status FormatVertex(int64_t, const Slice&, std::string*) override {
    return Status::OK();
  }
  bool MutatesGraph() const override { return mutates_; }

 private:
  bool mutates_;
};

TEST(ResolveStorageTest, AutoPicksLsmForMutatingPrograms) {
  FakeProgram mutating(true), readonly(false);
  PregelixJobConfig cfg;
  cfg.storage = VertexStorage::kAuto;
  JobRuntimeContext ctx;
  ctx.job_config = &cfg;

  ctx.program = &mutating;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kLsmBTree);
  ctx.program = &readonly;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kBTree);

  // Static hints pass through untouched, mutations or not.
  cfg.storage = VertexStorage::kLsmBTree;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kLsmBTree);
  cfg.storage = VertexStorage::kBTree;
  ctx.program = &mutating;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kBTree);
}

TEST(ResolvePlanDecisionTest, AutoWithoutOptimizerFallsBackToLegacy) {
  // Direct BuildSuperstepJob callers (plan-generator unit tests) and a
  // recovering driver have no optimizer yet: kAuto must still resolve
  // deterministically, via the legacy heuristic and the plan defaults.
  PregelixJobConfig cfg;
  cfg.join = JoinStrategy::kAuto;
  cfg.groupby = GroupByStrategy::kAuto;
  cfg.groupby_connector = GroupByConnector::kAuto;
  JobRuntimeContext ctx;
  ctx.job_config = &cfg;
  ctx.current_superstep = 3;
  ctx.gs.num_vertices = 1000;
  ctx.gs.num_edges = 5000;
  ctx.gs.live_vertices = 10;
  ctx.gs.messages = 10;

  const PlanDecision d = ResolvePlanDecision(&ctx);
  EXPECT_EQ(d.join, JoinStrategy::kLeftOuter);  // sparse, message-light
  EXPECT_EQ(d.groupby, GroupByStrategy::kHashSort);  // optimistic default
  EXPECT_EQ(d.connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(ctx.current_join, d.join);
  EXPECT_EQ(ctx.current_groupby, d.groupby);
  EXPECT_EQ(ctx.current_connector, d.connector);
}

TEST(ResolvePlanDecisionTest, StaticHintsWinOverTheOptimizer) {
  PregelixJobConfig cfg;
  cfg.join = JoinStrategy::kLeftOuter;
  cfg.groupby = GroupByStrategy::kAuto;
  cfg.groupby_connector = GroupByConnector::kMerged;
  JobRuntimeContext ctx;
  ctx.job_config = &cfg;
  ctx.current_superstep = 2;
  ctx.optimizer = std::make_shared<PlanOptimizer>();

  const PlanDecision d = ResolvePlanDecision(&ctx);
  EXPECT_EQ(d.join, JoinStrategy::kLeftOuter);
  EXPECT_EQ(d.groupby, GroupByStrategy::kHashSort);  // the kAuto knob
  EXPECT_EQ(d.connector, GroupByConnector::kMerged);
}

TEST(PlanNamesTest, CanonicalSpellings) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kFullOuter), "fullouter");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kLeftOuter), "leftouter");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kAdaptive), "adaptive");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kAuto), "auto");
  EXPECT_STREQ(GroupByStrategyName(GroupByStrategy::kHashSort), "hashsort");
  EXPECT_STREQ(GroupByConnectorName(GroupByConnector::kMerged), "merged");
  EXPECT_STREQ(VertexStorageName(VertexStorage::kLsmBTree), "lsm");
  PlanDecision d;
  EXPECT_EQ(PlanDecisionString(d), "fullouter/sort/unmerged");
}

// ---------------------------------------------------------------------------
// End to end: the observable plan flip

/// Star head (vertex 0 adjacent to 1..head-1) plus a path tail hung off
/// vertex head-1. CC floods component 0 through the head in a couple of
/// supersteps, then walks the tail one vertex per superstep: a long run of
/// supersteps whose frontier is 2-3 vertices out of head+tail.
InMemoryGraph LollipopGraph(int64_t head, int64_t tail) {
  InMemoryGraph g;
  g.adj.resize(head + tail);
  for (int64_t v = 1; v < head; ++v) {
    g.adj[0].push_back(v);
    g.adj[v].push_back(0);
  }
  for (int64_t i = 0; i < tail; ++i) {
    const int64_t v = head + i;
    const int64_t prev = i == 0 ? head - 1 : v - 1;
    g.adj[prev].push_back(v);
    g.adj[v].push_back(prev);
  }
  return g;
}

TEST(AdaptiveEndToEndTest, CcUnderAutoFlipsJoinToLeftOuter) {
  TempDir dir("adaptive-e2e");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  const InMemoryGraph graph = LollipopGraph(100, 30);
  ASSERT_TRUE(WriteGraph(dfs, "lollipop", graph, 3).ok());
  const std::vector<int64_t> ref = CcRef(graph);

  ClusterConfig config;
  config.num_workers = 3;
  config.worker_ram_bytes = 8u << 20;
  config.temp_root = dir.Sub("cluster");
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);

  PregelixJobConfig job;
  job.name = "cc-auto";
  job.input_dir = "lollipop";
  job.output_dir = "out";
  job.join = JoinStrategy::kAuto;
  job.groupby = GroupByStrategy::kAuto;
  job.groupby_connector = GroupByConnector::kAuto;
  job.storage = VertexStorage::kAuto;

  const uint64_t since = EventJournal::Global().last_seq();
  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  JobResult result;
  Status s = runtime.Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Channel 1: the JobResult decision trail. Superstep 1 is the default
  // scan plan; the sparse tail must have flipped the join to the probe.
  ASSERT_FALSE(result.plan_decisions.empty());
  EXPECT_EQ(result.plan_decisions.front().plan.join, JoinStrategy::kFullOuter);
  EXPECT_EQ(result.plan_decisions.front().reason, "initial");
  const PlanDecisionRecord* flip = nullptr;
  for (const PlanDecisionRecord& r : result.plan_decisions) {
    if (r.switched.find("join") != std::string::npos &&
        r.plan.join == JoinStrategy::kLeftOuter) {
      flip = &r;
      break;
    }
  }
  ASSERT_NE(flip, nullptr)
      << "kAuto never switched to the left-outer join on a graph whose "
         "frontier is 2-3 vertices for 30 supersteps";
  EXPECT_GT(flip->superstep, 1);
  // The tail stays sparse to the end: the flip must not revert.
  EXPECT_EQ(result.plan_decisions.back().plan.join, JoinStrategy::kLeftOuter);

  // Channel 2: the event journal carries the same switch.
  bool journaled = false;
  for (const JournalEvent& e : EventJournal::Global().SnapshotSince(since)) {
    if (e.category != "plan.switch") continue;
    std::map<std::string, std::string> kv(e.kv.begin(), e.kv.end());
    if (kv["knob"] == "join" && kv["from"] == "fullouter" &&
        kv["to"] == "leftouter") {
      EXPECT_EQ(e.superstep, flip->superstep);
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled) << "no plan.switch event for the join flip";

  // Channel 3: the optimizer metrics counted it.
  EXPECT_GE(cluster.registry()
                ->GetCounter("pregelix.optimizer.switches",
                             {{"job", "cc-auto"}, {"knob", "join"}})
                ->value(),
            1u);
  EXPECT_GE(cluster.registry()
                ->GetCounter("pregelix.optimizer.decisions",
                             {{"job", "cc-auto"}})
                ->value(),
            static_cast<uint64_t>(result.plan_decisions.size()));

  // And the answer is still right: every vertex lands in component 0.
  std::vector<std::string> names;
  ASSERT_TRUE(dfs.List("out", &names).ok());
  std::map<int64_t, int64_t> out;
  for (const std::string& part : names) {
    std::string contents;
    ASSERT_TRUE(dfs.Read("out/" + part, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid, component;
      fields >> vid >> component;
      EXPECT_TRUE(out.emplace(vid, component).second);
    }
  }
  ASSERT_EQ(out.size(), ref.size());
  for (const auto& [vid, component] : out) {
    EXPECT_EQ(component, ref[vid]) << "vid " << vid;
  }
}

// The combiner-reduction signal end to end: a job whose group-by sits on
// sort (forced at superstep 1 here, where a spill demotion would leave it)
// must be re-promoted to hash pre-aggregation once the combiner
// demonstrably reduces with nothing spilling. On a complete graph every
// vertex hears from all three sender partitions, so the receive-side
// combine folds 3:1 — past the 2.0 re-promotion threshold.
TEST(AdaptiveEndToEndTest, CombinerReductionRepromotesHashGroupBy) {
  TempDir dir("adaptive-repromote");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  constexpr int64_t kVertices = 48;
  InMemoryGraph graph;
  graph.adj.resize(kVertices);
  for (int64_t v = 0; v < kVertices; ++v) {
    for (int64_t u = 0; u < kVertices; ++u) {
      if (u != v) graph.adj[v].push_back(u);
    }
  }
  ASSERT_TRUE(WriteGraph(dfs, "complete", graph, 3).ok());

  ClusterConfig config;
  config.num_workers = 3;
  config.temp_root = dir.Sub("cluster");
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);

  PregelixJobConfig job;
  job.name = "pagerank-repromote";
  job.input_dir = "complete";
  job.output_dir = "out";
  job.join = JoinStrategy::kFullOuter;
  job.groupby = GroupByStrategy::kAuto;
  job.groupby_connector = GroupByConnector::kUnmerged;

  SetPlanDecisionOverrideForTesting([](int64_t superstep, PlanDecision* d) {
    if (superstep != 1) return false;
    d->groupby = GroupByStrategy::kSort;
    return true;
  });
  PageRankProgram program(/*iterations=*/6);
  PageRankProgram::Adapter adapter(&program);
  JobResult result;
  const Status s = runtime.Run(&adapter, job, &result);
  SetPlanDecisionOverrideForTesting(nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();

  ASSERT_FALSE(result.plan_decisions.empty());
  EXPECT_EQ(result.plan_decisions.front().plan.groupby,
            GroupByStrategy::kSort);
  const PlanDecisionRecord* promoted = nullptr;
  for (const PlanDecisionRecord& r : result.plan_decisions) {
    if (r.switched.find("groupby") != std::string::npos &&
        r.plan.groupby == GroupByStrategy::kHashSort) {
      promoted = &r;
      break;
    }
  }
  ASSERT_NE(promoted, nullptr)
      << "sort group-by was never re-promoted although the combiner "
         "folds 3:1 with no spills";
  EXPECT_EQ(promoted->reason.rfind("reduction=", 0), 0u) << promoted->reason;
  EXPECT_EQ(result.plan_decisions.back().plan.groupby,
            GroupByStrategy::kHashSort);
}

}  // namespace
}  // namespace pregelix
