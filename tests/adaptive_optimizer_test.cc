// Adaptive plan optimizer suite (DESIGN.md "Adaptive plan optimization").
//
// Unit half: the decision functions in isolation — the PlanOptimizer's
// threshold edges (including the message-volume guard on sparse
// frontiers), confirmation streaks, cooldowns, and reactive (stall/spill)
// switches, all driven by hand-built OptimizerFeedback records; plus
// admission-time storage resolution, the ResolvePlanDecision fallback
// paths, and a decision record that only the kAuto knobs write.
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
// Scan-volume approximation

TEST(ApproxVertexScanBytesTest, TracksGraphShape) {
  // The constants are a contract: the optimizer's message-dominance guard
  // compares message volume against exactly this approximation.
  EXPECT_EQ(ApproxVertexScanBytes(0, 0), 0);
  EXPECT_EQ(ApproxVertexScanBytes(1000, 5000), 1000 * 16 + 5000 * 8);
  EXPECT_LT(ApproxVertexScanBytes(100, 100), ApproxVertexScanBytes(100, 200));
}

// ---------------------------------------------------------------------------
// PlanOptimizer decision logic (fake feedback feed)

/// Baseline feedback: 1000 vertices, 5000 edges, negligible message volume.
/// Scan approximation is 56000 bytes, so the default message-dominance
/// threshold sits at 28000.
OptimizerFeedback Feedback(int64_t live, int64_t messages) {
  OptimizerFeedback fb;
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
  // The group-by is not decided: a kAuto group-by runs the default hint.
  EXPECT_EQ(d.groupby, GroupByStrategy::kDense);
  EXPECT_EQ(d.connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(opt.last_reason(), "initial");
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, JoinSwitchRequiresConfirmationStreak) {
  PlanOptimizer opt;
  opt.Observe(Feedback(50, 50));  // ratio 0.1 < 0.20
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter) << "streak of 1";
  opt.Observe(Feedback(50, 50));
  EXPECT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter) << "streak of 2";
  EXPECT_EQ(opt.switch_count(), 1);
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason().rfind("frontier", 0), 0u) << opt.last_reason();
}

// A near-empty frontier (ratio below 0.01) takes the probe join at once,
// without the streak: a full-outer scan of every vertex for a handful of
// messages costs more than a flap could. A frontier that is only sparse
// still needs the streak.
TEST(PlanOptimizerTest, NearEmptyFrontierSwitchesWithoutTheStreak) {
  PlanOptimizer opt;
  opt.Decide(1);
  opt.Observe(Feedback(0, 1));  // ratio 0.001
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kLeftOuter);
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.switch_count(), 1);
  EXPECT_EQ(opt.last_reason().rfind("frontier", 0), 0u) << opt.last_reason();

  PlanOptimizer sparse;
  sparse.Decide(1);
  sparse.Observe(Feedback(50, 50));  // ratio 0.1
  EXPECT_EQ(sparse.Decide(2).join, JoinStrategy::kFullOuter) << "streak of 1";
  sparse.Observe(Feedback(50, 50));
  EXPECT_EQ(sparse.Decide(3).join, JoinStrategy::kLeftOuter) << "streak of 2";
}

TEST(PlanOptimizerTest, SparseBoundaryIsExclusive) {
  PlanOptimizer opt;
  // ratio == kSparseFrontierRatio exactly (200/1000 = 0.20): not sparse.
  for (int64_t ss = 1; ss <= 6; ++ss) {
    opt.Observe(Feedback(100, 100));
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, HysteresisBandHoldsTheProbeJoin) {
  PlanOptimizer opt;
  opt.Observe(Feedback(50, 50));
  opt.Decide(2);
  opt.Observe(Feedback(50, 50));
  ASSERT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter);

  // Ratio 0.30 sits inside the [0.20, 0.35] band: no backswitch, ever.
  for (int64_t ss = 3; ss <= 8; ++ss) {
    opt.Observe(Feedback(200, 100));
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kLeftOuter)
        << "band ratio flapped at superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 1);

  // Ratio 0.50 is past the dense edge: back to the scan after the streak.
  opt.Observe(Feedback(400, 100));
  EXPECT_EQ(opt.Decide(10).join, JoinStrategy::kLeftOuter);
  opt.Observe(Feedback(400, 100));
  EXPECT_EQ(opt.Decide(11).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.switch_count(), 2);
}

TEST(PlanOptimizerTest, MessageVolumeBlocksTheProbeJoin) {
  PlanOptimizer opt;
  for (int64_t ss = 1; ss <= 6; ++ss) {
    OptimizerFeedback fb = Feedback(25, 25);  // ratio 0.05: very sparse
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
  OptimizerFeedback fb = Feedback(200, 100);
  fb.stalled = true;
  opt.Observe(fb);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kLeftOuter);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason(), "stall");

  // The new plan stalls too at a dense ratio: wants to switch back
  // reactively, but the cooldown pins the knob until superstep 5.
  for (int64_t ss = 2; ss <= 3; ++ss) {
    OptimizerFeedback dense = Feedback(400, 100);
    dense.stalled = true;
    opt.Observe(dense);
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kLeftOuter)
        << "cooldown violated at superstep " << ss + 1;
  }
  OptimizerFeedback dense = Feedback(400, 100);
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
    opt.Observe(ss % 2 == 1 ? Feedback(25, 25)     // ratio 0.05
                            : Feedback(900, 50));  // ratio 0.95
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "oscillating signal switched the join at superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, ConnectorBackswitchNeedsTheLoadToHalve) {
  PlanOptimizer opt;
  // Heavy combine-op skew prefers the merged (sender-materializing)
  // connector; no spill and no stall, so this is a proactive streak switch.
  OptimizerFeedback skewed = Feedback(500, 100);
  skewed.groupby_skew = 5.0;
  skewed.message_bytes = 1000;
  opt.Observe(skewed);
  EXPECT_EQ(opt.Decide(2).connector, GroupByConnector::kUnmerged);
  opt.Observe(skewed);
  EXPECT_EQ(opt.Decide(3).connector, GroupByConnector::kMerged);
  EXPECT_FALSE(opt.last_reactive());

  // Clean again, but message volume has only dropped to 600 of the 1000 at
  // switch time: the merged connector hides the signal that caused the
  // switch, so the backswitch demands the load halve. Stays merged.
  for (int64_t ss = 3; ss <= 8; ++ss) {
    OptimizerFeedback clean = Feedback(500, 100);
    clean.message_bytes = 600;
    opt.Observe(clean);
    EXPECT_EQ(opt.Decide(ss + 1).connector, GroupByConnector::kMerged)
        << "backswitched without the load halving at superstep " << ss + 1;
  }

  // Load at 400 (< half of 1000): backswitch after the streak.
  OptimizerFeedback light = Feedback(500, 100);
  light.message_bytes = 400;
  opt.Observe(light);
  EXPECT_EQ(opt.Decide(10).connector, GroupByConnector::kMerged);
  opt.Observe(light);
  EXPECT_EQ(opt.Decide(11).connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(opt.last_reason(), "load-drop");
}

TEST(PlanOptimizerTest, DecideIsMemoizedPerSuperstep) {
  PlanOptimizer opt;
  opt.Observe(Feedback(50, 50));  // sparse: wants the probe join
  // The driver resolves the plan twice per superstep (publish path + job
  // build); repeated Decide calls must not advance the streak.
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter);
  opt.Observe(Feedback(50, 50));
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

/// Resolution context in which a dense group-by fits under either
/// connector: two workers at the default budget, a fixed-width combiner
/// (SSSP's) and 1000 loaded vids, partition p holding p, p + 2, ..., 998 + p
/// (placement by vid mod P).
class ResolvePlanDecisionTest : public ::testing::Test {
 protected:
  ResolvePlanDecisionTest() {
    ClusterConfig config;
    config.num_workers = 2;
    config.temp_root = dir_.Sub("cluster");
    cluster_ = std::make_unique<SimulatedCluster>(config);
    ctx_.program = &adapter_;
    ctx_.job_config = &cfg_;
    ctx_.cluster = cluster_.get();
    ctx_.partitions.resize(cluster_->num_partitions());
    for (size_t p = 0; p < ctx_.partitions.size(); ++p) {
      ctx_.partitions[p].min_vid = static_cast<int64_t>(p);
      ctx_.partitions[p].max_vid = 998 + static_cast<int64_t>(p);
    }
  }

  TempDir dir_{"resolve-plan"};
  std::unique_ptr<SimulatedCluster> cluster_;
  SsspProgram program_{0};
  SsspProgram::Adapter adapter_{&program_};
  PregelixJobConfig cfg_;
  JobRuntimeContext ctx_;
};

TEST_F(ResolvePlanDecisionTest, AutoWithoutOptimizerResolvesToTheInitialPlan) {
  // Direct BuildSuperstepJob callers (plan-generator unit tests, `pregelix
  // verify`) have no optimizer: every kAuto knob resolves to the
  // optimizer's superstep-1 plan, whatever the statistics say.
  cfg_.join = JoinStrategy::kAuto;
  cfg_.groupby = GroupByStrategy::kAuto;
  cfg_.groupby_connector = GroupByConnector::kAuto;
  ctx_.current_superstep = 3;
  ctx_.gs.num_vertices = 1000;
  ctx_.gs.num_edges = 5000;
  ctx_.gs.live_vertices = 10;
  ctx_.gs.messages = 10;

  const PlanDecision d = ResolvePlanDecision(&ctx_);
  EXPECT_EQ(d.join, JoinStrategy::kFullOuter);  // even on a sparse frontier
  EXPECT_EQ(d.groupby, GroupByStrategy::kDense);  // the default hint
  EXPECT_EQ(d.connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(ctx_.current_join, d.join);
  EXPECT_EQ(ctx_.current_groupby, d.groupby);
  EXPECT_EQ(ctx_.current_connector, d.connector);
}

TEST_F(ResolvePlanDecisionTest, StaticHintsWinOverTheOptimizer) {
  cfg_.join = JoinStrategy::kLeftOuter;
  cfg_.groupby = GroupByStrategy::kAuto;
  cfg_.groupby_connector = GroupByConnector::kMerged;
  ctx_.current_superstep = 2;
  ctx_.optimizer = std::make_shared<PlanOptimizer>();

  const PlanDecision d = ResolvePlanDecision(&ctx_);
  EXPECT_EQ(d.join, JoinStrategy::kLeftOuter);
  EXPECT_EQ(d.groupby, GroupByStrategy::kDense);  // the kAuto knob
  EXPECT_EQ(d.connector, GroupByConnector::kMerged);
}

// The optimizer runs only the policies of the knobs the job left at kAuto,
// so a static knob's signal cannot leak into a switch it did make. Here only
// the join is kAuto. Superstep 2 spills three times the 1 MB budget, which
// would make a switch to the merged connector reactive; the join switch at
// superstep 3, after two supersteps at frontier 0.1, must still be recorded
// as the proactive switch it is.
TEST(ResolveAndPublishPlanTest, StaticKnobsLeaveNoTraceInTheRecord) {
  PregelixJobConfig cfg;
  cfg.name = "static-knobs";
  cfg.join = JoinStrategy::kAuto;
  cfg.groupby = GroupByStrategy::kSort;
  cfg.groupby_connector = GroupByConnector::kUnmerged;
  JobRuntimeContext ctx;
  ctx.job_config = &cfg;
  ctx.job_id = "static-knobs";
  ctx.optimizer = std::make_shared<PlanOptimizer>(
      AutoKnobs{.join = true, .connector = false},
      /*groupby_memory_bytes=*/1u << 20);
  MetricsRegistry registry;

  PlanDecisionRecord record;
  for (int64_t superstep = 1; superstep <= 3; ++superstep) {
    ctx.current_superstep = superstep;
    ASSERT_TRUE(ResolveAndPublishPlan(&ctx, &registry, &record).ok());
    OptimizerFeedback fb = Feedback(50, 50);  // frontier 0.1
    if (superstep == 2) {
      fb.spill_count = 3;
      fb.spill_bytes = 3u << 20;
    }
    ctx.optimizer->Observe(fb);
  }
  EXPECT_EQ(record.plan, (PlanDecision{JoinStrategy::kLeftOuter,
                                       GroupByStrategy::kSort,
                                       GroupByConnector::kUnmerged}));
  EXPECT_EQ(record.switched, "join");
  EXPECT_FALSE(record.reactive);
  EXPECT_EQ(record.reason, "frontier=0.100");
  EXPECT_EQ(ctx.optimizer->switch_count(), 1);
  EXPECT_EQ(registry.CounterValue("pregelix.optimizer.reactive_switches",
                                  {{"job", "static-knobs"}}),
            0u);
}

TEST(PlanNamesTest, CanonicalSpellings) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kFullOuter), "fullouter");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kLeftOuter), "leftouter");
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

}  // namespace
}  // namespace pregelix
