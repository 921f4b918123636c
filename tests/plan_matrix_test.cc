#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dataflow/plan_profile.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

/// Every physical plan must compute the same answer: 2 join strategies x
/// 2 group-by algorithms x 2 group-by connectors x 2 vertex storages = the
/// sixteen tailored executions of paper Section 5.8, plus the dense
/// group-by extension on the group-by axis.
using PlanParam =
    std::tuple<JoinStrategy, GroupByStrategy, GroupByConnector, VertexStorage>;

class PlanMatrixTest : public ::testing::TestWithParam<PlanParam> {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("plan-matrix");
    dfs_ = new DistributedFileSystem(dir_->Sub("dfs"));
    GraphStats stats;
    ASSERT_TRUE(GenerateBtcLike(*dfs_, "input", 3, 500, 7.0, 77, &stats).ok());
    InMemoryGraph graph;
    ASSERT_TRUE(LoadGraph(*dfs_, "input", &graph).ok());
    expected_ = new std::vector<double>(SsspRef(graph, 0));
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete dfs_;
    delete dir_;
    expected_ = nullptr;
    dfs_ = nullptr;
    dir_ = nullptr;
  }

  static TempDir* dir_;
  static DistributedFileSystem* dfs_;
  static std::vector<double>* expected_;
};

TempDir* PlanMatrixTest::dir_ = nullptr;
DistributedFileSystem* PlanMatrixTest::dfs_ = nullptr;
std::vector<double>* PlanMatrixTest::expected_ = nullptr;

/// Runs SSSP from vertex 0 twice under one plan (the second run dumps to
/// `out_dir`) and checks the dump against the reference. `result` is the
/// second run's.
void RunSsspAndCheck(const PlanParam& plan, const ClusterConfig& config,
                     DistributedFileSystem* dfs,
                     const std::vector<double>& expected,
                     const std::string& out_dir, JobResult* result) {
  const auto [join, groupby, connector, storage] = plan;
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, dfs);

  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "sssp-matrix";
  job.input_dir = "input";
  job.join = join;
  job.groupby = groupby;
  job.groupby_connector = connector;
  job.storage = storage;
  Status s = runtime.Run(&adapter, job, result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Validate against the reference via the final vertex values read through
  // a fresh dump job (separate output dir per plan).
  job.output_dir = out_dir;
  s = runtime.Run(&adapter, job, result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<std::string> names;
  ASSERT_TRUE(dfs->List(out_dir, &names).ok());
  int64_t seen = 0;
  for (const std::string& name : names) {
    std::string contents;
    ASSERT_TRUE(dfs->Read(out_dir + "/" + name, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid;
      std::string value;
      fields >> vid >> value;
      ASSERT_LT(static_cast<size_t>(vid), expected.size());
      if (expected[vid] < 0) {
        EXPECT_EQ(value, "inf") << "vid " << vid;
      } else {
        EXPECT_NEAR(std::stod(value), expected[vid], 1e-9) << "vid " << vid;
      }
      ++seen;
    }
  }
  EXPECT_EQ(seen, static_cast<int64_t>(expected.size()));
}

std::string PlanKey(const PlanParam& plan) {
  const auto [join, groupby, connector, storage] = plan;
  return std::to_string(static_cast<int>(join)) +
         std::to_string(static_cast<int>(groupby)) +
         std::to_string(static_cast<int>(connector)) +
         std::to_string(static_cast<int>(storage));
}

TEST_P(PlanMatrixTest, SsspIdenticalAcrossPhysicalPlans) {
  ClusterConfig config;
  config.num_workers = 3;
  config.worker_ram_bytes = 8u << 20;
  config.frame_size = 4 * 1024;
  config.temp_root = dir_->Sub("cluster-" + PlanKey(GetParam()));
  JobResult result;
  ASSERT_NO_FATAL_FAILURE(RunSsspAndCheck(GetParam(), config, dfs_,
                                          *expected_,
                                          "out-" + PlanKey(GetParam()),
                                          &result));
  // At this budget the dense mailbox fits: the dense rows run dense.
  if (std::get<1>(GetParam()) == GroupByStrategy::kDense) {
    ASSERT_FALSE(result.superstep_stats.empty());
    for (const SuperstepStats& stats : result.superstep_stats) {
      EXPECT_EQ(stats.groupby_used, GroupByStrategy::kDense)
          << "superstep " << stats.superstep;
    }
  }
}

// A group-by budget too small for one partition's receive array: the
// dense hint falls back to the sort group-by on every superstep, with the
// same answer.
TEST_F(PlanMatrixTest, DenseFallsBackToSortWhenTheMailboxDoesNotFit) {
  ClusterConfig config;
  config.num_workers = 3;
  config.worker_ram_bytes = 8u << 20;
  config.frame_size = 4 * 1024;
  // One frame plus 1 KB: a partition holds 167 of the 500 vids (every
  // third), and their 167 slots take 1,360 bytes.
  config.groupby_memory_bytes = config.frame_size + 1024;
  config.temp_root = dir_->Sub("cluster-small-budget");
  const PlanParam plan{JoinStrategy::kFullOuter, GroupByStrategy::kDense,
                       GroupByConnector::kUnmerged, VertexStorage::kBTree};
  JobResult result;
  ASSERT_NO_FATAL_FAILURE(RunSsspAndCheck(plan, config, dfs_, *expected_,
                                          "out-small-budget", &result));
  ASSERT_FALSE(result.superstep_stats.empty());
  for (const SuperstepStats& stats : result.superstep_stats) {
    EXPECT_EQ(stats.groupby_used, GroupByStrategy::kSort)
        << "superstep " << stats.superstep;
  }
}

/// Tuples into and out of the job's combine-msgs operator, summed over its
/// supersteps.
std::pair<uint64_t, uint64_t> CombineTuples(const JobResult& result) {
  for (const PlanOperatorProfile& op : result.plan_profile->ops()) {
    if (op.name == "combine-msgs") {
      return {op.total.tuples_in, op.total.tuples_out};
    }
  }
  ADD_FAILURE() << "no combine-msgs operator";
  return {0, 0};
}

// One frame plus 2 KB holds each partition's 167-slot receive array but not
// the 500-slot array of the whole vid range. Under the unmerged connector
// the superstep runs dense with an uncombined send side: the receivers see
// every message and fold them to what a pre-combining send side yields.
// The merging connector needs key-sorted sender streams, so under it the
// superstep runs sort.
TEST_F(PlanMatrixTest, DenseSendsUncombinedWhenOnlyThePartitionArraysFit) {
  ClusterConfig config;
  config.num_workers = 3;
  config.worker_ram_bytes = 8u << 20;
  config.frame_size = 4 * 1024;
  const PlanParam unmerged{JoinStrategy::kFullOuter, GroupByStrategy::kDense,
                           GroupByConnector::kUnmerged, VertexStorage::kBTree};
  config.temp_root = dir_->Sub("cluster-whole-range");
  JobResult combined;
  ASSERT_NO_FATAL_FAILURE(RunSsspAndCheck(unmerged, config, dfs_, *expected_,
                                          "out-whole-range", &combined));

  config.groupby_memory_bytes = config.frame_size + 2 * 1024;
  config.temp_root = dir_->Sub("cluster-partition-arrays");
  JobResult uncombined;
  ASSERT_NO_FATAL_FAILURE(RunSsspAndCheck(unmerged, config, dfs_, *expected_,
                                          "out-partition-arrays",
                                          &uncombined));
  ASSERT_FALSE(uncombined.superstep_stats.empty());
  for (const SuperstepStats& stats : uncombined.superstep_stats) {
    EXPECT_EQ(stats.groupby_used, GroupByStrategy::kDense)
        << "superstep " << stats.superstep;
    EXPECT_EQ(stats.spill_bytes, 0u) << "superstep " << stats.superstep;
  }
  const auto [combined_in, combined_out] = CombineTuples(combined);
  const auto [uncombined_in, uncombined_out] = CombineTuples(uncombined);
  EXPECT_GT(uncombined_in, combined_in);
  EXPECT_EQ(uncombined_out, combined_out);

  const PlanParam merged{JoinStrategy::kFullOuter, GroupByStrategy::kDense,
                         GroupByConnector::kMerged, VertexStorage::kBTree};
  config.temp_root = dir_->Sub("cluster-partition-arrays-merged");
  JobResult sorted;
  ASSERT_NO_FATAL_FAILURE(RunSsspAndCheck(merged, config, dfs_, *expected_,
                                          "out-partition-arrays-merged",
                                          &sorted));
  ASSERT_FALSE(sorted.superstep_stats.empty());
  for (const SuperstepStats& stats : sorted.superstep_stats) {
    EXPECT_EQ(stats.groupby_used, GroupByStrategy::kSort)
        << "superstep " << stats.superstep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSixteenPlans, PlanMatrixTest,
    ::testing::Combine(
        ::testing::Values(JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter),
        ::testing::Values(GroupByStrategy::kSort, GroupByStrategy::kHashSort,
                          GroupByStrategy::kDense),
        ::testing::Values(GroupByConnector::kUnmerged,
                          GroupByConnector::kMerged),
        ::testing::Values(VertexStorage::kBTree, VertexStorage::kLsmBTree)));

}  // namespace
}  // namespace pregelix
