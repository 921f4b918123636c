// Crash-recovery torture harness (ISSUE headline deliverable).
//
// Each schedule is derived from one RNG seed: it picks a checkpoint
// cadence, a number of simulated driver crashes, and for each crash a fault
// point and a target superstep. The job is run until a crash kills it, then
// resumed by job_id in a fresh "process" (new SimulatedCluster + runtime
// over the same DFS), crashed again, ... until the schedule is exhausted
// and a final resume completes. The dumped output must be BYTE-IDENTICAL
// to an undisturbed run of the same plan: recovery is only correct if it is
// invisible in the result.
//
// Determinism notes: SSSP's min-combiner is insensitive to message order,
// so every physical plan is fair game. PageRank sums floating-point
// contributions, so its schedules pin GroupByConnector::kMerged (the
// merging connector's tie-break makes the fold order reproducible).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

using fault::Action;
using fault::FaultInjector;
using fault::FaultSpec;

/// Fault points a schedule may crash at. All unwind Status::Aborted through
/// the superstep loop; superstep scoping keeps them out of load/recovery.
const char* const kCrashPoints[] = {
    "pregel.gs.write",    "channel.send",
    "channel.recv",       "io.file.write",
    "io.run_file.append", "pregel.checkpoint.file",
    "pregel.checkpoint.manifest", "pregel.dump",
};
constexpr size_t kNumCrashPoints =
    sizeof(kCrashPoints) / sizeof(kCrashPoints[0]);

struct Plan {
  JoinStrategy join;
  GroupByStrategy groupby;
  GroupByConnector connector;
  VertexStorage storage;
};

std::string PlanKey(const Plan& plan) {
  return std::to_string(static_cast<int>(plan.join)) +
         std::to_string(static_cast<int>(plan.groupby)) +
         std::to_string(static_cast<int>(plan.connector)) +
         std::to_string(static_cast<int>(plan.storage));
}

class TortureTest : public ::testing::Test {
 protected:
  TortureTest() : dfs_(dir_.Sub("dfs")) {
    FaultInjector::Global().Reset();
    GraphStats stats;
    EXPECT_TRUE(GenerateBtcLike(dfs_, "input", 3, 400, 6.0, 21, &stats).ok());
    // Lollipop graph for the plan-switch schedules: a star head plus a long
    // path tail. SSSP from vertex 0 settles the head in two supersteps and
    // then walks the tail one vertex per superstep — a guaranteed sparse
    // frontier, so the kAuto join deterministically flips to left-outer.
    InMemoryGraph lollipop;
    constexpr int64_t kHead = 100, kTail = 30;
    lollipop.adj.resize(kHead + kTail);
    for (int64_t v = 1; v < kHead; ++v) {
      lollipop.adj[0].push_back(v);
      lollipop.adj[v].push_back(0);
    }
    for (int64_t i = 0; i < kTail; ++i) {
      const int64_t v = kHead + i;
      const int64_t prev = i == 0 ? kHead - 1 : v - 1;
      lollipop.adj[prev].push_back(v);
      lollipop.adj[v].push_back(prev);
    }
    EXPECT_TRUE(WriteGraph(dfs_, "lollipop", lollipop, 3).ok());
  }
  ~TortureTest() override {
    FaultInjector::Global().Reset();
    // Time-ledger conservation under crash torture (DESIGN.md §20): every
    // fault unwind must still settle every attached nanosecond into exactly
    // one bucket. Debug builds demand exact zero; release tolerates a sliver
    // in case a future platform's clock plays games.
    const TimeLedgerSnapshot ledger = TimeLedger::Global().TakeSnapshot();
    EXPECT_EQ(ledger.misuse_count, 0);
#ifndef NDEBUG
    EXPECT_EQ(ledger.unattributed_ns, 0);
#else
    EXPECT_LE(ledger.unattributed_ns, 1'000'000);
#endif
  }

  /// One job execution in a fresh simulated process.
  Status RunOnce(bool pagerank, const Plan& plan, PregelixJobConfig job,
                 JobResult* result) {
    job.join = plan.join;
    job.groupby = plan.groupby;
    job.groupby_connector = plan.connector;
    job.storage = plan.storage;
    ClusterConfig config;
    config.num_workers = 3;
    config.worker_ram_bytes = 8u << 20;
    config.temp_root = dir_.Sub("cluster-" + std::to_string(run_counter_++));
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs_);
    if (pagerank) {
      PageRankProgram program(5);
      PageRankProgram::Adapter adapter(&program);
      return runtime.Run(&adapter, job, result);
    }
    SsspProgram program(0);
    SsspProgram::Adapter adapter(&program);
    return runtime.Run(&adapter, job, result);
  }

  std::map<std::string, std::string> ReadOutput(const std::string& out_dir) {
    std::map<std::string, std::string> files;
    std::vector<std::string> names;
    EXPECT_TRUE(dfs_.List(out_dir, &names).ok()) << out_dir;
    for (const std::string& name : names) {
      EXPECT_TRUE(dfs_.Read(out_dir + "/" + name, &files[name]).ok());
    }
    return files;
  }

  /// Output bytes of an undisturbed run, computed once per (algorithm, plan).
  const std::map<std::string, std::string>& Baseline(bool pagerank,
                                                     const Plan& plan) {
    const std::string key = (pagerank ? "pr-" : "sssp-") + PlanKey(plan);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;
    PregelixJobConfig job;
    job.name = "baseline-" + key;
    job.input_dir = "input";
    job.output_dir = "out-baseline-" + key;
    JobResult result;
    Status s = RunOnce(pagerank, plan, job, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return baselines_[key] = ReadOutput(job.output_dir);
  }

  /// Runs one seeded crash schedule end to end and compares the recovered
  /// output byte-for-byte against the undisturbed baseline.
  void RunSchedule(uint64_t seed, bool pagerank, const Plan& plan) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed) + " plan " +
                 PlanKey(plan));
    const std::map<std::string, std::string>& baseline =
        Baseline(pagerank, plan);
    ASSERT_FALSE(baseline.empty());

    Random rnd(seed);
    PregelixJobConfig job;
    job.name = "torture";
    job.job_id = "torture-" + std::to_string(seed);
    job.input_dir = "input";
    job.output_dir = "out-torture-" + std::to_string(seed);
    job.checkpoint_interval = 1 + static_cast<int>(rnd.Uniform(2));
    // Crash targets land inside the job's actual superstep range.
    const uint64_t superstep_range = pagerank ? 6 : 8;
    const int crashes = 1 + static_cast<int>(rnd.Uniform(3));

    bool done = false;
    for (int i = 0; i < crashes && !done; ++i) {
      FaultSpec spec;
      spec.action = Action::kCrash;
      spec.scope_superstep =
          1 + static_cast<int64_t>(rnd.Uniform(superstep_range));
      const char* point = kCrashPoints[rnd.Uniform(kNumCrashPoints)];
      FaultInjector::Global().Arm(point, spec);
      job.resume = i > 0;
      JobResult result;
      Status s = RunOnce(pagerank, plan, job, &result);
      FaultInjector::Global().Reset();
      if (s.ok()) {
        // The crash superstep was never reached (job halted first, or a
        // resume started past it): the job simply finished.
        done = true;
        break;
      }
      ASSERT_TRUE(s.IsAborted())
          << "crash at " << point << " superstep " << spec.scope_superstep
          << " surfaced as a non-crash error: " << s.ToString();
      ++crashes_fired_;
    }
    if (!done) {
      job.resume = true;
      JobResult result;
      Status s = RunOnce(pagerank, plan, job, &result);
      ASSERT_TRUE(s.ok()) << "final resume failed: " << s.ToString();
    }

    const std::map<std::string, std::string> got = ReadOutput(job.output_dir);
    ASSERT_EQ(got.size(), baseline.size());
    for (const auto& [name, bytes] : baseline) {
      auto found = got.find(name);
      ASSERT_TRUE(found != got.end()) << "missing output file " << name;
      EXPECT_TRUE(found->second == bytes)
          << "output file " << name << " differs from the undisturbed run ("
          << found->second.size() << " vs " << bytes.size() << " bytes)";
    }
  }

  TempDir dir_{"torture-test"};
  DistributedFileSystem dfs_;
  std::map<std::string, std::map<std::string, std::string>> baselines_;
  int run_counter_ = 0;
  /// Jobs actually killed mid-run across all schedules. A schedule whose
  /// crash superstep is never reached contributes nothing; the per-suite
  /// assertions below keep the harness honest about exercising recovery.
  int crashes_fired_ = 0;
};

TEST_F(TortureTest, SsspSurvivesTwelveRandomizedCrashSchedules) {
  const Plan plans[] = {
      {JoinStrategy::kFullOuter, GroupByStrategy::kSort,
       GroupByConnector::kUnmerged, VertexStorage::kBTree},
      {JoinStrategy::kLeftOuter, GroupByStrategy::kSort,
       GroupByConnector::kMerged, VertexStorage::kLsmBTree},
      {JoinStrategy::kFullOuter, GroupByStrategy::kHashSort,
       GroupByConnector::kMerged, VertexStorage::kBTree},
      {JoinStrategy::kLeftOuter, GroupByStrategy::kHashSort,
       GroupByConnector::kUnmerged, VertexStorage::kLsmBTree},
  };
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ASSERT_NO_FATAL_FAILURE(
        RunSchedule(seed, /*pagerank=*/false, plans[(seed - 1) % 4]));
  }
  // The schedules must actually kill jobs, not just arm faults that never
  // fire — otherwise this suite degenerates to a plain correctness test.
  EXPECT_GE(crashes_fired_, 8) << "too few schedules crashed mid-run";
}

// Crash schedules against the feedback-driven chooser: the recovered
// process rebuilds its optimizer from scratch, so the post-resume plan
// trajectory may differ from the undisturbed run — the output must not.
// SSSP's min-combiner makes its bytes plan-independent, so the all-kAuto
// baseline comparison stays byte-exact whatever the chooser does.
TEST_F(TortureTest, SsspAutoPlanSurvivesRandomizedCrashSchedules) {
  const Plan auto_plan = {JoinStrategy::kAuto, GroupByStrategy::kAuto,
                          GroupByConnector::kAuto, VertexStorage::kAuto};
  for (uint64_t seed = 51; seed <= 56; ++seed) {
    ASSERT_NO_FATAL_FAILURE(
        RunSchedule(seed, /*pagerank=*/false, auto_plan));
  }
  EXPECT_GE(crashes_fired_, 4) << "too few schedules crashed mid-run";
}

// The targeted schedule of the ISSUE: crash exactly at the plan-switch
// boundary (the `pregel.plan.switch` fault point fires on the first
// superstep whose plan differs from the last). Recovery restarts from the
// latest checkpoint with a fresh optimizer and must still produce bytes
// identical to the undisturbed kAuto run.
TEST_F(TortureTest, CrashAtThePlanSwitchBoundaryRecoversByteIdentically) {
  const Plan auto_plan = {JoinStrategy::kAuto, GroupByStrategy::kAuto,
                          GroupByConnector::kAuto, VertexStorage::kBTree};

  PregelixJobConfig base;
  base.name = "switch-baseline";
  base.input_dir = "lollipop";
  base.output_dir = "out-switch-baseline";
  JobResult base_result;
  ASSERT_TRUE(RunOnce(/*pagerank=*/false, auto_plan, base, &base_result).ok());
  // The schedule is only meaningful if the undisturbed run switches plans.
  bool switched = false;
  for (const PlanDecisionRecord& r : base_result.plan_decisions) {
    switched = switched || !r.switched.empty();
  }
  ASSERT_TRUE(switched)
      << "kAuto never switched plans on the lollipop graph; the crash "
         "below would never fire";
  const std::map<std::string, std::string> baseline =
      ReadOutput(base.output_dir);
  ASSERT_FALSE(baseline.empty());

  PregelixJobConfig job;
  job.name = "switch-crash";
  job.job_id = "switch-crash";
  job.input_dir = "lollipop";
  job.output_dir = "out-switch-crash";
  job.checkpoint_interval = 2;
  FaultSpec spec;
  spec.action = Action::kCrash;  // unscoped: fires at the first switch
  FaultInjector::Global().Arm("pregel.plan.switch", spec);
  JobResult result;
  Status s = RunOnce(/*pagerank=*/false, auto_plan, job, &result);
  const auto stats = FaultInjector::Global().Stats("pregel.plan.switch");
  FaultInjector::Global().Reset();
  ASSERT_TRUE(s.IsAborted()) << s.ToString();
  ASSERT_GE(stats.fires, 1u);

  job.resume = true;
  s = RunOnce(/*pagerank=*/false, auto_plan, job, &result);
  ASSERT_TRUE(s.ok()) << "resume across the plan switch failed: "
                      << s.ToString();

  const std::map<std::string, std::string> got = ReadOutput(job.output_dir);
  ASSERT_EQ(got.size(), baseline.size());
  for (const auto& [name, bytes] : baseline) {
    auto found = got.find(name);
    ASSERT_TRUE(found != got.end()) << "missing output file " << name;
    EXPECT_TRUE(found->second == bytes)
        << "output file " << name << " differs from the undisturbed run ("
        << found->second.size() << " vs " << bytes.size() << " bytes)";
  }
}

TEST_F(TortureTest, PageRankSurvivesEightRandomizedCrashSchedules) {
  // The kAuto arm pins the connector merged: PageRank sums floats, and only
  // the merging connector's tie-break makes the fold order reproducible
  // (the chooser is free to pick join and group-by).
  const Plan plans[] = {
      {JoinStrategy::kFullOuter, GroupByStrategy::kSort,
       GroupByConnector::kMerged, VertexStorage::kBTree},
      {JoinStrategy::kFullOuter, GroupByStrategy::kHashSort,
       GroupByConnector::kMerged, VertexStorage::kLsmBTree},
      {JoinStrategy::kAuto, GroupByStrategy::kAuto,
       GroupByConnector::kMerged, VertexStorage::kAuto},
  };
  for (uint64_t seed = 101; seed <= 108; ++seed) {
    ASSERT_NO_FATAL_FAILURE(
        RunSchedule(seed, /*pagerank=*/true, plans[(seed - 101) % 3]));
  }
  EXPECT_GE(crashes_fired_, 5) << "too few schedules crashed mid-run";
}

// A torn run-file append: the fault writes half of a buffered flush to disk
// and fails it with kIoError. A half-written run must never be silently
// committed, so the job fails like any other I/O error (not as a simulated
// crash), and a resume from the previous checkpoint is byte-identical: the
// torn prefix that did reach disk is invisible after recovery. Superstep 3
// sits between checkpoints (interval 2) and runs no checkpoint job of its
// own, and its superstep writers append long before the runtime's retried GS
// write, so the single scoped fire deterministically tears a superstep run.
TEST_F(TortureTest, TornRunFileAppendFailsTheJobAndResumesByteIdentically) {
  const Plan plan = {JoinStrategy::kFullOuter, GroupByStrategy::kSort,
                     GroupByConnector::kUnmerged, VertexStorage::kLsmBTree};
  const std::map<std::string, std::string>& baseline =
      Baseline(/*pagerank=*/false, plan);
  ASSERT_FALSE(baseline.empty());

  PregelixJobConfig job;
  job.name = "torn-append";
  job.job_id = "torn-append";
  job.input_dir = "input";
  job.output_dir = "out-torn-append";
  job.checkpoint_interval = 2;
  FaultSpec spec;
  spec.action = Action::kTornWrite;
  spec.scope_superstep = 3;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("io.file.write", spec);
  JobResult result;
  Status s = RunOnce(/*pagerank=*/false, plan, job, &result);
  const auto stats = FaultInjector::Global().Stats("io.file.write");
  FaultInjector::Global().Reset();
  ASSERT_GE(stats.fires, 1u) << "the torn write never fired";
  ASSERT_FALSE(s.ok()) << "a torn run-file append went undetected";
  ASSERT_FALSE(s.IsAborted())
      << "torn write surfaced as a crash, not an I/O error: " << s.ToString();
  // The tear hit a superstep operator's run, not the runtime's GS write.
  EXPECT_NE(s.ToString().find("torn-append-superstep-3/"), std::string::npos)
      << s.ToString();

  job.resume = true;
  s = RunOnce(/*pagerank=*/false, plan, job, &result);
  ASSERT_TRUE(s.ok()) << "resume after torn write failed: " << s.ToString();

  const std::map<std::string, std::string> got = ReadOutput(job.output_dir);
  ASSERT_EQ(got.size(), baseline.size());
  for (const auto& [name, bytes] : baseline) {
    auto found = got.find(name);
    ASSERT_TRUE(found != got.end()) << "missing output file " << name;
    EXPECT_TRUE(found->second == bytes)
        << "output file " << name << " differs from the undisturbed run ("
        << found->second.size() << " vs " << bytes.size() << " bytes)";
  }
}

}  // namespace
}  // namespace pregelix
