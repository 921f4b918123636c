// EXPLAIN ANALYZE plan profiles: collection on a real SSSP job, tuple
// conservation across every connector and the Msg relation, one count on
// every surface (profile, SuperstepStats, registry), spill accounting under
// small and large group-by budgets, deterministic JSON export, and the stall
// watchdog.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dataflow/plan_profile.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "pregel/runtime.h"
#include "pregel/typed.h"
#include "pregel/watchdog.h"

namespace pregelix {
namespace {

/// One disposable environment per run, so back-to-back runs share nothing
/// (the determinism test depends on that).
struct TestEnv {
  explicit TestEnv(size_t groupby_budget = 0,
                   MetricsRegistry* registry = nullptr)
      : dir("explain-test"), dfs(dir.Sub("dfs")) {
    config.num_workers = 2;
    config.partitions_per_worker = 2;
    config.worker_ram_bytes = 8u << 20;
    config.frame_size = 8 * 1024;
    if (groupby_budget != 0) config.groupby_memory_bytes = groupby_budget;
    config.temp_root = dir.Sub("cluster");
    config.metrics_registry = registry;
    cluster = std::make_unique<SimulatedCluster>(config);
    runtime = std::make_unique<PregelixRuntime>(cluster.get(), &dfs);
    GraphStats stats;
    EXPECT_TRUE(
        GenerateWebmapLike(dfs, "input/g", 3, 800, 6.0, 42, &stats).ok());
  }

  JobResult Sssp(JoinStrategy join = JoinStrategy::kFullOuter,
                 const std::string& name = "explain-sssp") {
    SsspProgram program(1);
    SsspProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = name;
    job.input_dir = "input/g";
    job.join = join;
    JobResult result;
    Status s = runtime->Run(&adapter, job, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return result;
  }

  TempDir dir;
  DistributedFileSystem dfs;
  ClusterConfig config;
  std::unique_ptr<SimulatedCluster> cluster;
  std::unique_ptr<PregelixRuntime> runtime;
};

TEST(ExplainTest, ProfileCollectedWithPaperLabels) {
  TestEnv run;
  const JobResult result = run.Sssp();
  ASSERT_GT(result.supersteps, 1);

  ASSERT_NE(result.plan_profile, nullptr);
  const PlanProfile& profile = *result.plan_profile;
  EXPECT_EQ(profile.supersteps_merged(),
            static_cast<int>(result.supersteps));
  ASSERT_FALSE(profile.ops().empty());
  ASSERT_FALSE(profile.edges().empty());

  bool saw_compute = false;
  bool saw_combine = false;
  bool saw_global = false;
  bool saw_resolve = false;
  for (const PlanOperatorProfile& op : profile.ops()) {
    if (op.name == "compute-full-outer-join") {
      saw_compute = true;
      // Paper vocabulary attached (Figures 3-5, 8).
      EXPECT_NE(op.label.find("full-outer scan-merge"), std::string::npos);
      EXPECT_GT(op.total.activations, 0u);
      EXPECT_GT(op.total.tuples_out, 0u);
      EXPECT_GT(op.total.wall_ns, 0u);
      EXPECT_GE(op.skew, 1.0);
    }
    if (op.name == "combine-msgs") {
      saw_combine = true;
      EXPECT_NE(op.label.find("D3"), std::string::npos);
      EXPECT_GT(op.total.tuples_in, 0u);
      EXPECT_GT(op.total.mem_hwm_bytes, 0u);
    }
    if (op.name == "global-agg") saw_global = true;
    if (op.name == "resolve") saw_resolve = true;
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_combine);
  EXPECT_TRUE(saw_global);
  // SSSP declares no graph mutations, so its plan has no resolve.
  EXPECT_FALSE(saw_resolve);

  // A non-empty critical path through the timed plan.
  EXPECT_GT(profile.wall_ns(), 0u);
  EXPECT_FALSE(profile.critical_path().empty());
  EXPECT_GT(profile.critical_path_wall_ns(), 0u);

  // Every superstep carried its own profile, and the render has content.
  for (const SuperstepStats& s : result.superstep_stats) {
    ASSERT_NE(s.profile, nullptr);
    EXPECT_GT(s.bytes_shuffled, 0u);
  }
  std::ostringstream tree;
  profile.RenderTree(tree);
  EXPECT_NE(tree.str().find("compute-full-outer-join"), std::string::npos);
  EXPECT_NE(tree.str().find("critical path"), std::string::npos);
}

/// Removes every odd vertex in superstep 1: a program that declares graph
/// mutations, so its plan keeps resolve.
class ShedOddVertices : public TypedVertexProgram<int64_t, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<int64_t, Empty, int64_t>;

  void Compute(VertexT& vertex, MessageIterator<int64_t>&) override {
    if (vertex.superstep() == 1 && vertex.id() % 2 == 1) {
      vertex.RemoveVertex(vertex.id());
    }
    vertex.VoteToHalt();
  }
  bool mutates_graph() const override { return true; }
  std::string FormatValue(int64_t, const int64_t& value) const override {
    return std::to_string(value);
  }
};

TEST(ExplainTest, MutatingProgramProfilesOneResolveRow) {
  TestEnv run;
  ShedOddVertices program;
  ShedOddVertices::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "explain-mutate";
  job.input_dir = "input/g";
  JobResult result;
  const Status s = run.runtime->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(result.final_gs.num_vertices, 400);
  ASSERT_NE(result.plan_profile, nullptr);
  int resolve_rows = 0;
  for (const PlanOperatorProfile& op : result.plan_profile->ops()) {
    if (op.name != "resolve") continue;
    ++resolve_rows;
    EXPECT_NE(op.label.find("D6"), std::string::npos);
    EXPECT_EQ(op.total.tuples_in, 400u);  // one removal per odd vertex
  }
  EXPECT_EQ(resolve_rows, 1);
}

TEST(ExplainTest, FrontierIsNonZeroOnEverySuperstepThatSentMessages) {
  // SSSP vertices vote to halt every superstep, so `live` reads 0 even
  // while messages wake vertices for the next one; the frontier column the
  // rollup and `run --stats` print counts them.
  TestEnv run;
  const JobResult result = run.Sssp();
  ASSERT_GT(result.supersteps, 2);
  int64_t messaging_steps = 0;
  int64_t live_reads_zero = 0;
  for (const SuperstepStats& s : result.superstep_stats) {
    if (s.messages == 0) continue;
    ++messaging_steps;
    EXPECT_GT(s.frontier(), 0) << "superstep " << s.superstep;
    EXPECT_GE(s.frontier(), s.messages) << "superstep " << s.superstep;
    if (s.live_vertices == 0) ++live_reads_zero;
  }
  EXPECT_GT(messaging_steps, 1);
  EXPECT_EQ(live_reads_zero, messaging_steps);
}

/// Summed counters of the operators whose name starts with `prefix`.
OperatorStats OpTotal(const PlanProfile& profile, const std::string& prefix) {
  OperatorStats total;
  for (const PlanOperatorProfile& op : profile.ops()) {
    if (op.name.rfind(prefix, 0) == 0) total += op.total;
  }
  return total;
}

TEST(ExplainTest, TupleConservationAcrossEveryConnector) {
  {
    TestEnv run;
    const JobResult result = run.Sssp(JoinStrategy::kAuto);
    ASSERT_NE(result.plan_profile, nullptr);

    // Cumulative and per-superstep: what a connector's producers appended
    // is exactly what its consumers saw (the executor drains channels even
    // when a consumer finishes early, so nothing leaks).
    for (const PlanEdgeProfile& e : result.plan_profile->edges()) {
      EXPECT_EQ(e.tuples_sent, e.tuples_recv)
          << e.src_name << " -> " << e.dst_name << " ["
          << ConnectorKindName(e.kind) << "]";
    }
    for (const SuperstepStats& s : result.superstep_stats) {
      ASSERT_NE(s.profile, nullptr);
      for (const PlanEdgeProfile& e : s.profile->edges()) {
        EXPECT_EQ(e.tuples_sent, e.tuples_recv)
            << "superstep " << s.superstep << ": " << e.src_name << " -> "
            << e.dst_name;
      }
    }

    // The Msg relation flows into compute: what combine-msgs wrote in
    // superstep s - 1 (its combined messages) is what either compute
    // variant read in superstep s.
    ASSERT_GT(result.superstep_stats.size(), 2u);
    for (size_t i = 1; i < result.superstep_stats.size(); ++i) {
      const SuperstepStats& prev = result.superstep_stats[i - 1];
      const SuperstepStats& s = result.superstep_stats[i];
      const uint64_t compute_in = OpTotal(*s.profile, "compute-").tuples_in;
      EXPECT_EQ(compute_in, OpTotal(*prev.profile, "combine-msgs").tuples_out)
          << "superstep " << s.superstep;
      EXPECT_EQ(compute_in, static_cast<uint64_t>(prev.messages))
          << "superstep " << s.superstep;
    }
  }

  // The default plan, on a test-local registry: every superstep is
  // profiled, its shuffled bytes are its connector bytes, and the
  // registry's per-frame connector counters agree with the profile's edges.
  MetricsRegistry registry;
  TestEnv run(/*groupby_budget=*/0, &registry);
  const JobResult result = run.Sssp();
  ASSERT_NE(result.plan_profile, nullptr);
  ASSERT_GT(result.supersteps, 1);
  for (const SuperstepStats& s : result.superstep_stats) {
    ASSERT_NE(s.profile, nullptr) << "superstep " << s.superstep;
    uint64_t connector_bytes = 0;
    for (const PlanEdgeProfile& e : s.profile->edges()) {
      connector_bytes += e.bytes;
    }
    EXPECT_GT(connector_bytes, 0u);
    EXPECT_EQ(s.bytes_shuffled, connector_bytes)
        << "superstep " << s.superstep;
  }
  int edges = 0;
  for (const PlanOperatorProfile& op : result.plan_profile->ops()) {
    uint64_t tuples = 0, frames = 0, bytes = 0;
    for (const PlanEdgeProfile& e : result.plan_profile->edges()) {
      if (e.src_name != op.name) continue;
      if (e.frames > 0) ++edges;
      tuples += e.tuples_sent;
      frames += e.frames;
      bytes += e.bytes;
    }
    uint64_t reg_tuples = 0, reg_frames = 0, reg_bytes = 0;
    for (int w = 0; w < run.config.num_workers; ++w) {
      const MetricLabels labels{{"operator", op.name},
                                {"worker", std::to_string(w)}};
      reg_tuples += registry.CounterValue("pregelix.dataflow.tuples_out",
                                          labels);
      reg_frames += registry.CounterValue(
          "pregelix.dataflow.connector_frames", labels);
      reg_bytes += registry.CounterValue("pregelix.dataflow.connector_bytes",
                                         labels);
    }
    SCOPED_TRACE(op.name);
    EXPECT_EQ(reg_tuples, tuples);
    EXPECT_EQ(reg_frames, frames);
    EXPECT_EQ(reg_bytes, bytes);
  }
  EXPECT_GE(edges, 2);  // compute -> combine-msgs and compute -> global-agg
}

TEST(ExplainTest, NoSpillsWithAmpleBudget) {
  TestEnv run;  // default budget: 8 MB / 16 = 512 KB per group-by
  const JobResult result = run.Sssp();
  ASSERT_NE(result.plan_profile, nullptr);
  EXPECT_EQ(result.plan_profile->TotalSpillCount(), 0u);
  EXPECT_EQ(result.plan_profile->TotalSpillBytes(), 0u);
}

TEST(ExplainTest, SpillsSurfaceUnderTinyBudget) {
  TestEnv run(/*groupby_budget=*/8 * 1024);
  const JobResult result = run.Sssp();
  ASSERT_NE(result.plan_profile, nullptr);
  EXPECT_GT(result.plan_profile->TotalSpillCount(), 0u);
  EXPECT_GT(result.plan_profile->TotalSpillBytes(), 0u);
  // The spills land on the group-by/sort operators and carry a memory
  // high-water mark from the spill boundary.
  bool attributed = false;
  for (const PlanOperatorProfile& op : result.plan_profile->ops()) {
    if (op.total.spill_count > 0) {
      attributed = true;
      EXPECT_GT(op.total.spill_bytes, 0u) << op.name;
      EXPECT_GT(op.total.mem_hwm_bytes, 0u) << op.name;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(ExplainTest, ProfileJsonIsByteIdenticalAcrossRuns) {
  // The job name carries a control character, which the export must keep
  // (escaped as \u0001), not blank.
  const std::string name = "explain\x01sssp";
  std::string first;
  std::string second;
  {
    TestEnv run;
    const JobResult result = run.Sssp(JoinStrategy::kFullOuter, name);
    ASSERT_NE(result.plan_profile, nullptr);
    std::ostringstream os;
    result.plan_profile->WriteJson(os, /*include_timing=*/false);
    first = os.str();
  }
  {
    TestEnv run;
    const JobResult result = run.Sssp(JoinStrategy::kFullOuter, name);
    ASSERT_NE(result.plan_profile, nullptr);
    std::ostringstream os;
    result.plan_profile->WriteJson(os, /*include_timing=*/false);
    second = os.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("{\"job\":\"explain\\u0001sssp-superstep-"),
            std::string::npos)
      << first;
  // The timing-free export must not leak any wall-clock field.
  EXPECT_EQ(first.find("wall_ns"), std::string::npos);
  EXPECT_EQ(first.find("skew"), std::string::npos);
  EXPECT_EQ(first.find("critical_path"), std::string::npos);
}

TEST(ExplainTest, StallWatchdogFlagsARunawaySuperstep) {
  MetricsRegistry registry;
  StallWatchdog watchdog(/*factor=*/2.0, &registry, "wd-test");
  // Three fast samples build the trailing mean (~2 ms each).
  for (int64_t s = 1; s <= 3; ++s) {
    watchdog.Arm(s);
    watchdog.Disarm(2'000'000);
  }
  EXPECT_EQ(watchdog.stall_count(), 0);
  // Superstep 4 blows through 2x the 2 ms mean while still "running".
  watchdog.Arm(4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (watchdog.stall_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watchdog.Disarm(60'000'000);
  EXPECT_EQ(watchdog.stall_count(), 1);
  EXPECT_EQ(registry.CounterValue("pregelix.pregel.stalls",
                                  MetricLabels{{"job", "wd-test"}}),
            1u);
  EXPECT_EQ(registry.GaugeValue("pregelix.pregel.superstep_stalled",
                                MetricLabels{{"job", "wd-test"}}),
            4);

  // Disabled watchdog: no thread, Arm/Disarm are no-ops.
  StallWatchdog off(/*factor=*/0.0, &registry, "wd-off");
  off.Arm(1);
  off.Disarm(1);
  EXPECT_EQ(off.stall_count(), 0);
}

TEST(ExplainTest, StallWatchdogIgnoresJitterUnderItsFloor) {
  // 4x a 2 ms trailing mean is 8 ms, but a deadline is never under 100 ms:
  // a 30 ms superstep on a busy host is jitter, not a stall.
  MetricsRegistry registry;
  StallWatchdog watchdog(/*factor=*/4.0, &registry, "wd-floor");
  for (int64_t s = 1; s <= 3; ++s) {
    watchdog.Arm(s);
    watchdog.Disarm(2'000'000);
  }
  watchdog.Arm(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  watchdog.Disarm(30'000'000);
  EXPECT_EQ(watchdog.stall_count(), 0);
  EXPECT_EQ(registry.CounterValue("pregelix.pregel.stalls",
                                  MetricLabels{{"job", "wd-floor"}}),
            0u);
}

}  // namespace
}  // namespace pregelix
