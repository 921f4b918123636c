// Randomized differential sweep: every physical plan in the 2x3x2x2 matrix
// (join x group-by x connector x storage) runs SSSP
// and CC on a seeded BTC-like graph and PageRank on a seeded webmap-like
// graph, and every dumped tuple is checked against the single-threaded
// `ref_algos` golden results. The graphs are pseudo-random but seeded, so a
// failure reproduces exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/plan_optimizer.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

using PlanParam =
    std::tuple<JoinStrategy, GroupByStrategy, GroupByConnector, VertexStorage>;

constexpr uint64_t kBtcSeed = 1234;
constexpr uint64_t kWebSeed = 5678;

class DifferentialSweepTest : public ::testing::TestWithParam<PlanParam> {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("diff-sweep");
    dfs_ = new DistributedFileSystem(dir_->Sub("dfs"));
    GraphStats stats;
    ASSERT_TRUE(
        GenerateBtcLike(*dfs_, "btc", 3, 500, 7.0, kBtcSeed, &stats).ok());
    ASSERT_TRUE(
        GenerateWebmapLike(*dfs_, "web", 3, 400, 6.0, kWebSeed, &stats).ok());
    InMemoryGraph btc, web;
    ASSERT_TRUE(LoadGraph(*dfs_, "btc", &btc).ok());
    ASSERT_TRUE(LoadGraph(*dfs_, "web", &web).ok());
    sssp_ref_ = new std::vector<double>(SsspRef(btc, 0));
    cc_ref_ = new std::vector<int64_t>(CcRef(btc));
    pagerank_ref_ = new std::vector<double>(PageRankRef(web, 5));
  }
  static void TearDownTestSuite() {
    delete sssp_ref_;
    delete cc_ref_;
    delete pagerank_ref_;
    delete dfs_;
    delete dir_;
    sssp_ref_ = nullptr;
    cc_ref_ = nullptr;
    pagerank_ref_ = nullptr;
    dfs_ = nullptr;
    dir_ = nullptr;
  }

  std::string PlanKey() const {
    const auto [join, groupby, connector, storage] = GetParam();
    return std::to_string(static_cast<int>(join)) +
           std::to_string(static_cast<int>(groupby)) +
           std::to_string(static_cast<int>(connector)) +
           std::to_string(static_cast<int>(storage));
  }

  /// Runs `program` under the parameterized plan, returns vid -> value text
  /// (and, when `result` is given, the job's result).
  void RunAndParse(PregelProgram* program, const std::string& name,
                   const std::string& input_dir,
                   std::map<int64_t, std::string>* out,
                   JobResult* result = nullptr) {
    const auto [join, groupby, connector, storage] = GetParam();
    ClusterConfig config;
    config.num_workers = 3;
    config.worker_ram_bytes = 8u << 20;
    config.frame_size = 4 * 1024;
    config.temp_root = dir_->Sub("cluster-" + name + "-" + PlanKey());
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, dfs_);

    PregelixJobConfig job;
    job.name = name;
    job.input_dir = input_dir;
    job.output_dir = "out-" + name + "-" + PlanKey();
    job.join = join;
    job.groupby = groupby;
    job.groupby_connector = connector;
    job.storage = storage;
    JobResult local;
    if (result == nullptr) result = &local;
    Status s = runtime.Run(program, job, result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    // Every message type here is fixed-width and the mailbox fits this
    // budget, so a dense hint runs dense on every superstep.
    if (groupby == GroupByStrategy::kDense) {
      ASSERT_FALSE(result->superstep_stats.empty());
      for (const SuperstepStats& stats : result->superstep_stats) {
        EXPECT_EQ(stats.groupby_used, GroupByStrategy::kDense)
            << "superstep " << stats.superstep;
      }
    }

    std::vector<std::string> names;
    ASSERT_TRUE(dfs_->List(job.output_dir, &names).ok());
    for (const std::string& part : names) {
      std::string contents;
      ASSERT_TRUE(dfs_->Read(job.output_dir + "/" + part, &contents).ok());
      std::istringstream lines(contents);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.empty()) continue;
        std::istringstream fields(line);
        int64_t vid;
        std::string value;
        fields >> vid >> value;
        // Tuple-for-tuple: each vertex dumped exactly once.
        EXPECT_TRUE(out->emplace(vid, value).second)
            << "vid " << vid << " dumped twice";
      }
    }
  }

  static TempDir* dir_;
  static DistributedFileSystem* dfs_;
  static std::vector<double>* sssp_ref_;
  static std::vector<int64_t>* cc_ref_;
  static std::vector<double>* pagerank_ref_;
};

TempDir* DifferentialSweepTest::dir_ = nullptr;
DistributedFileSystem* DifferentialSweepTest::dfs_ = nullptr;
std::vector<double>* DifferentialSweepTest::sssp_ref_ = nullptr;
std::vector<int64_t>* DifferentialSweepTest::cc_ref_ = nullptr;
std::vector<double>* DifferentialSweepTest::pagerank_ref_ = nullptr;

TEST_P(DifferentialSweepTest, SsspMatchesReferenceOnSeededBtcGraph) {
  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  std::map<int64_t, std::string> out;
  ASSERT_NO_FATAL_FAILURE(RunAndParse(&adapter, "sssp", "btc", &out));
  ASSERT_EQ(out.size(), sssp_ref_->size());
  for (const auto& [vid, value] : out) {
    ASSERT_LT(static_cast<size_t>(vid), sssp_ref_->size());
    if ((*sssp_ref_)[vid] < 0) {
      EXPECT_EQ(value, "inf") << "vid " << vid;
    } else {
      EXPECT_NEAR(std::stod(value), (*sssp_ref_)[vid], 1e-9) << "vid " << vid;
    }
  }
}

TEST_P(DifferentialSweepTest, CcMatchesReferenceOnSeededBtcGraph) {
  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  std::map<int64_t, std::string> out;
  ASSERT_NO_FATAL_FAILURE(RunAndParse(&adapter, "cc", "btc", &out));
  ASSERT_EQ(out.size(), cc_ref_->size());
  for (const auto& [vid, value] : out) {
    ASSERT_LT(static_cast<size_t>(vid), cc_ref_->size());
    EXPECT_EQ(std::stoll(value), (*cc_ref_)[vid]) << "vid " << vid;
  }
}

TEST_P(DifferentialSweepTest, PageRankMatchesReferenceOnSeededWebmapGraph) {
  PageRankProgram program(5);
  PageRankProgram::Adapter adapter(&program);
  std::map<int64_t, std::string> out;
  ASSERT_NO_FATAL_FAILURE(RunAndParse(&adapter, "pagerank", "web", &out));
  ASSERT_EQ(out.size(), pagerank_ref_->size());
  for (const auto& [vid, value] : out) {
    ASSERT_LT(static_cast<size_t>(vid), pagerank_ref_->size());
    EXPECT_NEAR(std::stod(value), (*pagerank_ref_)[vid], 1e-9)
        << "vid " << vid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSixteenPlans, DifferentialSweepTest,
    ::testing::Combine(
        ::testing::Values(JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter),
        ::testing::Values(GroupByStrategy::kSort, GroupByStrategy::kHashSort,
                          GroupByStrategy::kDense),
        ::testing::Values(GroupByConnector::kUnmerged,
                          GroupByConnector::kMerged),
        ::testing::Values(VertexStorage::kBTree, VertexStorage::kLsmBTree)));

// The adaptive arm: the feedback-driven optimizer must land on the same
// answers as the static plans it switches between, whatever trajectory it
// takes.
INSTANTIATE_TEST_SUITE_P(
    AdaptivePlans, DifferentialSweepTest,
    ::testing::Combine(
        ::testing::Values(JoinStrategy::kAuto),
        ::testing::Values(GroupByStrategy::kAuto),
        ::testing::Values(GroupByConnector::kAuto),
        ::testing::Values(VertexStorage::kBTree, VertexStorage::kAuto)));

/// Clears the plan-decision override even when an assertion bails out.
struct ScopedPlanOverride {
  explicit ScopedPlanOverride(PlanDecisionOverride fn) {
    SetPlanDecisionOverrideForTesting(std::move(fn));
  }
  ~ScopedPlanOverride() { SetPlanDecisionOverrideForTesting(nullptr); }
};

/// Adversarial schedule: every switchable knob flips on every superstep —
/// the worst case the hysteresis normally forbids. The join and connector
/// alternate with period 2 and the group-by cycles dense -> sort -> hashsort
/// with period 3, so every group-by meets every join and connector at a
/// plan boundary. The runtime must carry Msg/Vertex/Vid state across
/// arbitrary plan boundaries, so the answers must still match the
/// references exactly.
class AdversarialFlipTest : public DifferentialSweepTest {
 protected:
  static GroupByStrategy FlipGroupBy(int64_t superstep) {
    constexpr GroupByStrategy kCycle[] = {GroupByStrategy::kDense,
                                          GroupByStrategy::kSort,
                                          GroupByStrategy::kHashSort};
    return kCycle[(superstep - 1) % 3];
  }

  /// The fixture's mailbox fits under both connectors, so every superstep
  /// ran the group-by the schedule forced, dense included.
  static void ExpectScheduledGroupBys(const JobResult& result) {
    ASSERT_GE(result.superstep_stats.size(), 3u);
    for (const SuperstepStats& stats : result.superstep_stats) {
      EXPECT_EQ(stats.groupby_used, FlipGroupBy(stats.superstep))
          << "superstep " << stats.superstep;
    }
  }
};

TEST_P(AdversarialFlipTest, EverySuperstepPlanFlipMatchesReferences) {
  ScopedPlanOverride guard([](int64_t superstep, PlanDecision* d) {
    const bool odd = superstep % 2 != 0;
    d->join = odd ? JoinStrategy::kFullOuter : JoinStrategy::kLeftOuter;
    d->groupby = FlipGroupBy(superstep);
    d->connector =
        odd ? GroupByConnector::kUnmerged : GroupByConnector::kMerged;
    return true;
  });

  SsspProgram sssp(0);
  SsspProgram::Adapter sssp_adapter(&sssp);
  std::map<int64_t, std::string> sssp_out;
  JobResult result;
  ASSERT_NO_FATAL_FAILURE(
      RunAndParse(&sssp_adapter, "sssp-flip", "btc", &sssp_out, &result));
  ExpectScheduledGroupBys(result);
  ASSERT_EQ(sssp_out.size(), sssp_ref_->size());
  for (const auto& [vid, value] : sssp_out) {
    if ((*sssp_ref_)[vid] < 0) {
      EXPECT_EQ(value, "inf") << "vid " << vid;
    } else {
      EXPECT_NEAR(std::stod(value), (*sssp_ref_)[vid], 1e-9) << "vid " << vid;
    }
  }

  ConnectedComponentsProgram cc;
  ConnectedComponentsProgram::Adapter cc_adapter(&cc);
  std::map<int64_t, std::string> cc_out;
  ASSERT_NO_FATAL_FAILURE(
      RunAndParse(&cc_adapter, "cc-flip", "btc", &cc_out, &result));
  ExpectScheduledGroupBys(result);
  ASSERT_EQ(cc_out.size(), cc_ref_->size());
  for (const auto& [vid, value] : cc_out) {
    EXPECT_EQ(std::stoll(value), (*cc_ref_)[vid]) << "vid " << vid;
  }

  PageRankProgram pagerank(5);
  PageRankProgram::Adapter pr_adapter(&pagerank);
  std::map<int64_t, std::string> pr_out;
  ASSERT_NO_FATAL_FAILURE(
      RunAndParse(&pr_adapter, "pagerank-flip", "web", &pr_out, &result));
  ExpectScheduledGroupBys(result);
  ASSERT_EQ(pr_out.size(), pagerank_ref_->size());
  for (const auto& [vid, value] : pr_out) {
    EXPECT_NEAR(std::stod(value), (*pagerank_ref_)[vid], 1e-9)
        << "vid " << vid;
  }
}

// The override only engages when an optimizer is installed, i.e. when the
// join or the connector is kAuto; here every knob is, and both storage
// engines get the adversarial treatment.
INSTANTIATE_TEST_SUITE_P(
    AdversarialAllAuto, AdversarialFlipTest,
    ::testing::Combine(
        ::testing::Values(JoinStrategy::kAuto),
        ::testing::Values(GroupByStrategy::kAuto),
        ::testing::Values(GroupByConnector::kAuto),
        ::testing::Values(VertexStorage::kBTree, VertexStorage::kLsmBTree)));

}  // namespace
}  // namespace pregelix
