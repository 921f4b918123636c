// Static plan verifier suite (DESIGN.md §18).
//
// Negative half: hand-built invalid JobSpecs, one per rule — each test
// asserts the precise rule id and that the diagnostic names the offending
// operator or edge, so a refactor cannot silently degrade the messages into
// something a user can't act on.
//
// Positive half: zero false positives over everything the plan generator
// can emit — all 24 static superstep plans (join x {dense, sort, hashsort}
// x connector x storage) plus the load / dump / checkpoint / recovery jobs,
// and every plan the kAuto optimizer can switch to (forced through the
// decision-override hook).
//
// End-to-end half: a kAuto run whose optimizer is forced to switch to a
// plan that a (test-injected) buggy plan generator corrupts. The verifier
// must reject the switch, pin the previous plan, journal
// `plan.verify.reject`, bump `pregelix.verifier.rejects` — and the job must
// complete with output byte-identical to a static-plan run.

#include "dataflow/plan_verifier.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dataflow/job.h"
#include "dataflow/operator.h"
#include "dfs/dfs.h"
#include "graph/text_io.h"
#include "pregel/plan_optimizer.h"
#include "pregel/plans.h"
#include "pregel/runtime.h"
#include "pregel/state.h"

namespace pregelix {
namespace {

// ---------------------------------------------------------------------------
// Unit half: one invalid spec per rule

std::shared_ptr<LambdaOperatorDescriptor> Op(const std::string& name) {
  return std::make_shared<LambdaOperatorDescriptor>(
      name, [](TaskContext&) { return Status::OK(); });
}

ConnectorSpec Edge(int src, int src_out, int dst, int dst_in,
                   ConnectorKind kind = ConnectorKind::kMToNPartition) {
  ConnectorSpec c;
  c.src_op = src;
  c.src_output = src_out;
  c.dst_op = dst;
  c.dst_input = dst_in;
  c.kind = kind;
  return c;
}

/// The first violation carrying `rule`, or nullptr.
const PlanViolation* Find(const PlanVerifyResult& result,
                          const std::string& rule) {
  for (const PlanViolation& v : result.violations) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

/// Asserts exactly one rule fired and returns its message.
std::string ExpectOnly(const PlanVerifyResult& result,
                       const std::string& rule) {
  EXPECT_EQ(result.violations.size(), 1u)
      << result.Render("test");
  const PlanViolation* v = Find(result, rule);
  EXPECT_NE(v, nullptr) << "rule '" << rule << "' did not fire:\n"
                        << result.Render("test");
  return v != nullptr ? v->message : "";
}

TEST(PlanVerifierTest, EmptyPlanIsClean) {
  JobSpec spec;
  EXPECT_TRUE(VerifyPlan(spec).ok());
}

TEST(PlanVerifierTest, SingleOperatorPlanIsClean) {
  JobSpec spec;
  spec.AddOperator(Op("solo"), 4);
  EXPECT_TRUE(VerifyPlan(spec).ok());
}

TEST(PlanVerifierTest, ZeroPartitionsRejected) {
  JobSpec spec;
  spec.AddOperator(Op("broken"), 0);
  const std::string msg = ExpectOnly(VerifyPlan(spec), "op-partitions");
  EXPECT_NE(msg.find("broken(op 0)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("num_partitions is 0"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, SelfLoopRejected) {
  JobSpec spec;
  spec.AddOperator(Op("ouroboros"), 2);
  spec.Connect(Edge(0, 0, 0, 0));
  const PlanVerifyResult result = VerifyPlan(spec);
  const PlanViolation* v = Find(result, "dag-acyclic");
  ASSERT_NE(v, nullptr) << result.Render("test");
  EXPECT_NE(v->message.find("ouroboros(op 0) -> ouroboros(op 0)"),
            std::string::npos)
      << v->message;
}

TEST(PlanVerifierTest, TwoOperatorCycleRejectedWithPath) {
  JobSpec spec;
  spec.AddOperator(Op("ping"), 2);
  spec.AddOperator(Op("pong"), 2);
  spec.Connect(Edge(0, 0, 1, 0));
  spec.Connect(Edge(1, 0, 0, 0));
  const PlanVerifyResult result = VerifyPlan(spec);
  const PlanViolation* v = Find(result, "dag-acyclic");
  ASSERT_NE(v, nullptr) << result.Render("test");
  // The diagnostic renders the actual cycle, both ops named.
  EXPECT_NE(v->message.find("cycle"), std::string::npos);
  EXPECT_NE(v->message.find("ping(op 0)"), std::string::npos) << v->message;
  EXPECT_NE(v->message.find("pong(op 1)"), std::string::npos) << v->message;
}

TEST(PlanVerifierTest, DisconnectedOperatorRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 2);
  spec.AddOperator(Op("sink"), 2);
  spec.AddOperator(Op("orphan"), 2);
  spec.Connect(Edge(0, 0, 1, 0));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "graph-connected");
  EXPECT_NE(msg.find("orphan(op 2)"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, TwoWritersToOneInputRejected) {
  JobSpec spec;
  spec.AddOperator(Op("a"), 2);
  spec.AddOperator(Op("b"), 2);
  spec.AddOperator(Op("sink"), 2);
  spec.Connect(Edge(0, 0, 2, 0));
  spec.Connect(Edge(1, 0, 2, 0));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "input-single-writer");
  EXPECT_NE(msg.find("sink(op 2)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2 writers"), std::string::npos) << msg;
  EXPECT_NE(msg.find("connectors #0 and #1"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, OutputFeedingTwoConnectorsRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 2);
  spec.AddOperator(Op("a"), 2);
  spec.AddOperator(Op("b"), 2);
  spec.Connect(Edge(0, 0, 1, 0));
  spec.Connect(Edge(0, 0, 2, 0));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "port-contiguous");
  EXPECT_NE(msg.find("gen(op 0)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("one sender per output port"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, InputPortGapRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 2);
  spec.AddOperator(Op("sink"), 2);
  spec.Connect(Edge(0, 0, 1, 1));  // input 1 used, input 0 never
  const std::string msg = ExpectOnly(VerifyPlan(spec), "port-contiguous");
  EXPECT_NE(msg.find("sink(op 1)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("gap before input 1"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, DanglingDeclaredPortRejected) {
  JobSpec spec;
  auto gen = Op("gen");
  gen->DeclarePorts(0, 2);  // declares two outputs, only one connected
  spec.AddOperator(gen, 2);
  spec.AddOperator(Op("sink"), 2);
  spec.Connect(Edge(0, 0, 1, 0));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "port-contiguous");
  EXPECT_NE(msg.find("declares 2 output port(s) but 1 are connected"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("dangling output port"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, OneToOnePartitionMismatchRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 4);
  spec.AddOperator(Op("sink"), 2);
  spec.Connect(Edge(0, 0, 1, 0, ConnectorKind::kOneToOne));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "partition-one-to-one");
  EXPECT_NE(msg.find("connector #0 [kOneToOne]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 4 -> 2"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, MToOneIntoMultiPartitionDstRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 4);
  spec.AddOperator(Op("agg"), 2);
  spec.Connect(Edge(0, 0, 1, 0, ConnectorKind::kMToOne));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "partition-m-to-one");
  EXPECT_NE(msg.find("connector #0 [kMToOne]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exactly 1 dst partition, got 2"), std::string::npos)
      << msg;
}

TEST(PlanVerifierTest, MergeFedByUndeclaredSortOrderRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 4);  // declares nothing => unsorted output
  spec.AddOperator(Op("sink"), 4);
  spec.Connect(Edge(0, 0, 1, 0, ConnectorKind::kMToNPartitionMerge));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "merge-sorted-input");
  EXPECT_NE(msg.find("kMToNPartitionMerge"), std::string::npos) << msg;
  EXPECT_NE(msg.find("declares unsorted"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, UnmetInputRequirementRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 4);
  auto sink = Op("sink");
  // Requires sorted arrival, but the plain partitioning connector delivers
  // unordered interleavings.
  sink->DeclareInput(0, {Sortedness::kSortedByKey, Partitioning::kHashByKey});
  spec.AddOperator(sink, 4);
  spec.Connect(Edge(0, 0, 1, 0, ConnectorKind::kMToNPartition));
  const std::string msg = ExpectOnly(VerifyPlan(spec), "input-requirements");
  EXPECT_NE(msg.find("sink(op 1)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("requires {sorted-by-key, hash-by-key}"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("delivers {unsorted, hash-by-key}"), std::string::npos)
      << msg;
}

TEST(PlanVerifierTest, SingletonRequirementNeedsGatheringConnector) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 4);
  auto agg = Op("agg");
  agg->DeclareInput(0, {Sortedness::kUnsorted, Partitioning::kSingleton});
  spec.AddOperator(agg, 1);
  // Repartitioning into a 1-partition op is not the same as gathering: the
  // declared singleton requirement is still satisfied only by kMToOne.
  spec.Connect(Edge(0, 0, 1, 0, ConnectorKind::kMToNPartition));
  const PlanVerifyResult result = VerifyPlan(spec);
  EXPECT_NE(Find(result, "input-requirements"), nullptr)
      << result.Render("test");

  JobSpec gathered;
  gathered.AddOperator(Op("gen"), 4);
  auto agg2 = Op("agg");
  agg2->DeclareInput(0, {Sortedness::kUnsorted, Partitioning::kSingleton});
  gathered.AddOperator(agg2, 1);
  gathered.Connect(Edge(0, 0, 1, 0, ConnectorKind::kMToOne));
  EXPECT_TRUE(VerifyPlan(gathered).ok())
      << VerifyPlan(gathered).Render("gathered");
}

TEST(PlanVerifierTest, InfeasibleCloneBudgetRejected) {
  JobSpec spec;
  spec.AddOperator(Op("gen"), 4);
  auto hog = Op("hog");
  hog->DeclareMemoryBytes(2u << 20);  // one clone wants 2 MB
  spec.AddOperator(hog, 4);
  spec.Connect(Edge(0, 0, 1, 0));
  PlanVerifyOptions opts;
  opts.worker_ram_bytes = 1u << 20;  // on a 1 MB worker
  const std::string msg = ExpectOnly(VerifyPlan(spec, opts), "budget-feasible");
  EXPECT_NE(msg.find("hog(op 1)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("worker_ram_bytes is 1048576"), std::string::npos) << msg;

  // The same plan on a big-enough worker is feasible; with no target
  // cluster (worker_ram_bytes == 0) the budget rule is off entirely.
  opts.worker_ram_bytes = 16u << 20;
  EXPECT_TRUE(VerifyPlan(spec, opts).ok());
  EXPECT_TRUE(VerifyPlan(spec).ok());
}

TEST(PlanVerifierTest, MergeReceiveFramesCountAgainstTheBudget) {
  // 64 senders x 32 KB materialized read frame = 2 MB pinned at the
  // receiver before its own budget — infeasible on a 1 MB worker even
  // though the declared budget alone would fit.
  JobSpec spec;
  auto gen = Op("gen");
  gen->DeclareOutput(0, {Sortedness::kSortedByKey, Partitioning::kArbitrary});
  spec.AddOperator(gen, 64);
  auto sink = Op("sink");
  sink->DeclareMemoryBytes(64u << 10);
  spec.AddOperator(sink, 4);
  spec.Connect(Edge(0, 0, 1, 0, ConnectorKind::kMToNPartitionMerge));
  PlanVerifyOptions opts;
  opts.worker_ram_bytes = 1u << 20;
  const std::string msg = ExpectOnly(VerifyPlan(spec, opts), "budget-feasible");
  EXPECT_NE(msg.find("merge-receive frames"), std::string::npos) << msg;
}

TEST(PlanVerifierTest, AllViolationsReportedInOnePass) {
  // The verifier never short-circuits: one pass, every diagnostic.
  JobSpec spec;
  spec.AddOperator(Op("broken"), 0);   // op-partitions
  spec.AddOperator(Op("orphan"), 2);   // graph-connected
  spec.AddOperator(Op("ping"), 2);     // dag-acyclic (with pong)
  spec.AddOperator(Op("pong"), 2);
  spec.Connect(Edge(2, 0, 3, 0));
  spec.Connect(Edge(3, 0, 2, 0));
  const PlanVerifyResult result = VerifyPlan(spec);
  EXPECT_NE(Find(result, "op-partitions"), nullptr);
  EXPECT_NE(Find(result, "graph-connected"), nullptr);
  EXPECT_NE(Find(result, "dag-acyclic"), nullptr);
  const std::string rendered = result.Render("multi");
  EXPECT_NE(rendered.find("plan verification failed for job 'multi'"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("error(s)"), std::string::npos) << rendered;
}

TEST(PlanVerifierTest, VerifyPlanOrErrorWrapsTheDiagnostic) {
  JobSpec spec;
  spec.set_name("bad-job");
  spec.AddOperator(Op("broken"), 0);
  const Status s = VerifyPlanOrError(spec);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("bad-job"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("[op-partitions]"), std::string::npos)
      << s.ToString();
}

TEST(PlanVerifierTest, CountVerificationMetersChecksAndViolations) {
  MetricsRegistry registry;
  JobSpec ok_spec;
  ok_spec.AddOperator(Op("solo"), 1);
  CountVerification(&registry, VerifyPlan(ok_spec));
  JobSpec bad;
  bad.AddOperator(Op("broken"), 0);
  CountVerification(&registry, VerifyPlan(bad));
  EXPECT_EQ(registry.GetCounter("pregelix.verifier.checks", {})->value(), 2u);
  EXPECT_EQ(registry
                .GetCounter("pregelix.verifier.violations",
                            {{"rule", "op-partitions"}})
                ->value(),
            1u);
  CountVerification(nullptr, VerifyPlan(bad));  // null registry: no-op
}

// ---------------------------------------------------------------------------
// Positive half: the plan generator's entire output space verifies clean

/// The plan generator's inputs after a load of kVertices vids: partition p
/// holds p, p + P, ..., the vids that ConnectorSpec::Route places there. At
/// the default 16 MB per worker (a 1 MB group-by budget) the dense send side
/// pre-combines into one slot per vid of the whole range; at 4 MB only each
/// partition's own slots fit, so it sends uncombined.
class GeneratedPlansTest : public ::testing::Test {
 protected:
  static constexpr int64_t kVertices = 100000;

  GeneratedPlansTest() : dfs_(dir_.Sub("dfs")) {
    config_.num_workers = 4;
    config_.temp_root = dir_.Sub("cluster");
    ctx_.program = &adapter_;
    ctx_.job_config = &job_;
    ctx_.dfs = &dfs_;
    ctx_.job_id = "verifier-positive";
    ctx_.gs.num_vertices = kVertices;
    ctx_.gs.live_vertices = kVertices;
    ctx_.current_superstep = 2;
    UseCluster(config_);
  }

  void UseCluster(const ClusterConfig& config) {
    cluster_.reset();  // the two would share one scratch root
    cluster_ = std::make_unique<SimulatedCluster>(config);
    ctx_.cluster = cluster_.get();
    const int partitions = cluster_->num_partitions();
    ctx_.partitions.clear();
    ctx_.partitions.resize(partitions);
    for (int p = 0; p < partitions; ++p) {
      ctx_.partitions[p].min_vid = p;
      ctx_.partitions[p].max_vid = p + (kVertices - 1 - p) / partitions *
                                           static_cast<int64_t>(partitions);
    }
    opts_ = PlanVerifyOptionsFrom(cluster_->config());
  }

  void ExpectClean(const JobSpec& spec, const std::string& what) {
    const PlanVerifyResult result = VerifyPlan(spec, opts_);
    EXPECT_TRUE(result.ok())
        << "false positive on " << what << ":\n" << result.Render(what);
  }

  TempDir dir_{"verifier-positive"};
  DistributedFileSystem dfs_;
  ClusterConfig config_;
  std::unique_ptr<SimulatedCluster> cluster_;
  SsspProgram program_{0};
  SsspProgram::Adapter adapter_{&program_};
  PregelixJobConfig job_;
  JobRuntimeContext ctx_;
  PlanVerifyOptions opts_;
};

TEST_F(GeneratedPlansTest, AllTwentyFourStaticPlansVerifyClean) {
  for (size_t worker_ram : {size_t{16} << 20, size_t{4} << 20}) {
    config_.worker_ram_bytes = worker_ram;
    UseCluster(config_);
    const bool combined = worker_ram == size_t{16} << 20;
    for (JoinStrategy join :
         {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
      for (GroupByStrategy groupby :
           {GroupByStrategy::kDense, GroupByStrategy::kSort,
            GroupByStrategy::kHashSort}) {
        for (GroupByConnector conn :
             {GroupByConnector::kUnmerged, GroupByConnector::kMerged}) {
          for (VertexStorage storage :
               {VertexStorage::kBTree, VertexStorage::kLsmBTree}) {
            job_.join = join;
            job_.groupby = groupby;
            job_.groupby_connector = conn;
            job_.storage = storage;
            ctx_.current_storage = storage;
            const JobSpec spec = BuildSuperstepJob(&ctx_);
            const PlanDecision d{ctx_.current_join, ctx_.current_groupby,
                                 ctx_.current_connector};
            const std::string what = "superstep " + PlanDecisionString(d) +
                                     "/" + VertexStorageName(storage) +
                                     " at " +
                                     std::to_string(worker_ram >> 20) + " MB";
            ExpectClean(spec, what);
            if (groupby != GroupByStrategy::kDense) {
              EXPECT_EQ(d.groupby, groupby) << what;
              continue;
            }
            // Each partition's receive array fits at both budgets; the
            // whole-range send array only at 16 MB. An uncombined send
            // side is unordered, which the merging connector cannot take.
            if (combined) {
              EXPECT_EQ(d.groupby, GroupByStrategy::kDense) << what;
              EXPECT_EQ(ctx_.dense_slots, static_cast<uint64_t>(kVertices))
                  << what;
            } else if (conn == GroupByConnector::kUnmerged) {
              EXPECT_EQ(d.groupby, GroupByStrategy::kDense) << what;
              EXPECT_EQ(ctx_.dense_slots, 0u) << what;
            } else {
              EXPECT_EQ(d.groupby, GroupByStrategy::kSort) << what;
            }
          }
        }
      }
    }
  }
}

TEST_F(GeneratedPlansTest, AuxiliaryJobsVerifyClean) {
  ExpectClean(BuildLoadJob(&ctx_), "load");
  ExpectClean(BuildDumpJob(&ctx_), "dump");
  ExpectClean(BuildCheckpointJob(&ctx_, 2), "checkpoint");
  ExpectClean(BuildRecoveryJob(&ctx_, 2), "recovery");
}

TEST_F(GeneratedPlansTest, EveryAutoSwitchTargetVerifiesClean) {
  // Whatever plan the optimizer switches to arrives through exactly this
  // path: kAuto knobs + a PlanOptimizer decision. Force each reachable
  // join x connector decision through the override hook and verify the
  // resulting spec — a false positive here would mean ResolveAndPublishPlan
  // vetoing a healthy switch at runtime. The group-by is not switched: a
  // kAuto group-by runs dense, which fits here under either connector.
  job_.join = JoinStrategy::kAuto;
  job_.groupby = GroupByStrategy::kAuto;
  job_.groupby_connector = GroupByConnector::kAuto;
  ctx_.optimizer = std::make_shared<PlanOptimizer>();
  for (JoinStrategy join :
       {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
    for (GroupByConnector conn :
         {GroupByConnector::kUnmerged, GroupByConnector::kMerged}) {
      SetPlanDecisionOverrideForTesting([join, conn](int64_t,
                                                     PlanDecision* d) {
        d->join = join;
        d->connector = conn;
        return true;
      });
      ctx_.current_superstep++;  // Decide() memoizes per superstep
      const JobSpec spec = BuildSuperstepJob(&ctx_);
      const PlanDecision d{ctx_.current_join, ctx_.current_groupby,
                           ctx_.current_connector};
      EXPECT_EQ(d, (PlanDecision{join, GroupByStrategy::kDense, conn}))
          << PlanDecisionString(d);
      ExpectClean(spec, "kAuto switch to " + PlanDecisionString(d));
    }
  }
  SetPlanDecisionOverrideForTesting(nullptr);
  ctx_.optimizer.reset();
}

// ---------------------------------------------------------------------------
// End-to-end half: rejected switch falls back, job completes byte-identical

InMemoryGraph PathGraph(int64_t n) {
  InMemoryGraph g;
  g.adj.resize(n);
  for (int64_t v = 0; v + 1 < n; ++v) {
    g.adj[v].push_back(v + 1);
    g.adj[v + 1].push_back(v);
  }
  return g;
}

/// All part files of a DFS output directory, concatenated in list order.
std::string SlurpOutput(DistributedFileSystem& dfs, const std::string& out) {
  std::vector<std::string> names;
  EXPECT_TRUE(dfs.List(out, &names).ok());
  std::string all;
  for (const std::string& part : names) {
    std::string contents;
    EXPECT_TRUE(dfs.Read(out + "/" + part, &contents).ok());
    all += part + ":\n" + contents;
  }
  return all;
}

TEST(VerifierFallbackEndToEndTest, RejectedSwitchKeepsThePreviousPlan) {
  TempDir dir("verifier-fallback");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  const InMemoryGraph graph = PathGraph(24);
  ASSERT_TRUE(WriteGraph(dfs, "path", graph, 2).ok());

  ClusterConfig config;
  config.num_workers = 2;
  config.temp_root = dir.Sub("cluster");

  // Reference run: the plan the fallback should pin us to, end to end.
  std::string want;
  {
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs);
    PregelixJobConfig job;
    job.name = "cc-static";
    job.input_dir = "path";
    job.output_dir = "out-static";
    ConnectedComponentsProgram program;
    ConnectedComponentsProgram::Adapter adapter(&program);
    JobResult result;
    ASSERT_TRUE(runtime.Run(&adapter, job, &result).ok());
    want = SlurpOutput(dfs, "out-static");
    ASSERT_FALSE(want.empty());
  }

  // Adversarial run: the optimizer demands a switch to the merged
  // connector from superstep 2 on, and a (test-injected) buggy plan
  // generator corrupts exactly those merged-connector specs by wiring a
  // second writer onto the group-by input. The verifier must reject every
  // such switch and pin the previous (valid, unmerged) plan.
  SetPlanDecisionOverrideForTesting([](int64_t superstep, PlanDecision* d) {
    d->join = JoinStrategy::kFullOuter;
    d->groupby = GroupByStrategy::kSort;
    d->connector = superstep >= 2 ? GroupByConnector::kMerged
                                  : GroupByConnector::kUnmerged;
    return true;
  });
  SetSuperstepSpecTamperForTesting([](JobRuntimeContext* ctx, JobSpec* spec) {
    if (ctx->current_connector != GroupByConnector::kMerged) return;
    ConnectorSpec dup = spec->connectors()[0];
    spec->Connect(dup);  // duplicate writer + duplicate output binding
  });

  const uint64_t since = EventJournal::Global().last_seq();
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);
  PregelixJobConfig job;
  job.name = "cc-fallback";
  job.input_dir = "path";
  job.output_dir = "out-fallback";
  job.join = JoinStrategy::kAuto;
  job.groupby = GroupByStrategy::kAuto;
  job.groupby_connector = GroupByConnector::kAuto;
  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  JobResult result;
  const Status s = runtime.Run(&adapter, job, &result);
  SetPlanDecisionOverrideForTesting(nullptr);
  SetSuperstepSpecTamperForTesting(nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // The rejected switch never ran: every superstep stayed unmerged, and
  // the decision trail says why.
  bool saw_reject_reason = false;
  for (const PlanDecisionRecord& r : result.plan_decisions) {
    EXPECT_EQ(r.plan.connector, GroupByConnector::kUnmerged)
        << "superstep " << r.superstep << " ran the rejected merged plan";
    if (r.reason.rfind("verify-reject:", 0) == 0) {
      saw_reject_reason = true;
      EXPECT_NE(r.reason.find("input-single-writer"), std::string::npos)
          << r.reason;
    }
  }
  EXPECT_TRUE(saw_reject_reason)
      << "no decision record carries the verify-reject reason";

  // The journal carries the rejection with the rejected and fallback plans.
  bool journaled = false;
  for (const JournalEvent& e : EventJournal::Global().SnapshotSince(since)) {
    if (e.category != "plan.verify.reject") continue;
    std::map<std::string, std::string> kv(e.kv.begin(), e.kv.end());
    EXPECT_NE(kv["rejected"].find("merged"), std::string::npos);
    EXPECT_NE(kv["fallback"].find("unmerged"), std::string::npos);
    EXPECT_NE(kv["rules"].find("input-single-writer"), std::string::npos);
    journaled = true;
  }
  EXPECT_TRUE(journaled) << "no plan.verify.reject event";

  // The meters counted it: at least one reject, and admission checked
  // every job that ran.
  EXPECT_GE(cluster.registry()
                ->GetCounter("pregelix.verifier.rejects",
                             {{"job", "cc-fallback"}})
                ->value(),
            1u);
  EXPECT_GT(
      cluster.registry()->GetCounter("pregelix.verifier.checks", {})->value(),
      0u);

  // And the fallback is not a degraded mode: the output is byte-identical
  // to the static-plan run.
  const std::string got = SlurpOutput(dfs, "out-fallback");
  EXPECT_EQ(got, want)
      << "fallback run output diverged from the static-plan run";
}

}  // namespace
}  // namespace pregelix
