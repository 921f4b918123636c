#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/plans.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

/// Reads a dumped result directory into vid -> value-string.
std::map<int64_t, std::string> ParseOutput(const DistributedFileSystem& dfs,
                                           const std::string& dir) {
  std::map<int64_t, std::string> out;
  std::vector<std::string> names;
  EXPECT_TRUE(dfs.List(dir, &names).ok());
  for (const std::string& name : names) {
    std::string contents;
    EXPECT_TRUE(dfs.Read(dir + "/" + name, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid;
      std::string value;
      fields >> vid >> value;
      out[vid] = value;
    }
  }
  return out;
}

/// Sums int64 messages into the vertex value, and sends messages to vids
/// far outside the loaded range 0..n-1: in superstep 1 every vertex v sends
/// v to v + 1, to v + 1000 and to -v - 1000, creating vertices on both sides
/// of the range; in superstep 2 every vertex created that way forwards its
/// sum to vid + 5000, creating more.
class SpreadBeyondRangeProgram
    : public TypedVertexProgram<int64_t, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<int64_t, Empty, int64_t>;

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    int64_t sum = 0;
    while (messages.HasNext()) sum += messages.Next();
    vertex.set_value(vertex.value() + sum);
    if (vertex.superstep() == 1) {
      vertex.SendMessage(vertex.id() + 1, vertex.id());
      vertex.SendMessage(vertex.id() + 1000, vertex.id());
      vertex.SendMessage(-vertex.id() - 1000, vertex.id());
    } else if (vertex.superstep() == 2 &&
               (vertex.id() < 0 || vertex.id() >= 1000)) {
      vertex.SendMessage(vertex.id() + 5000, sum);
    }
    vertex.VoteToHalt();
  }
  bool has_combiner() const override { return true; }
  void Combine(int64_t* acc, const int64_t& incoming) const override {
    *acc += incoming;
  }
  std::string FormatValue(int64_t, const int64_t& value) const override {
    return std::to_string(value);
  }
};

class PregelRuntimeTest : public ::testing::Test {
 protected:
  PregelRuntimeTest() : dfs_(dir_.Sub("dfs")) {
    config_.num_workers = 2;
    config_.partitions_per_worker = 2;
    config_.worker_ram_bytes = 8u << 20;
    config_.frame_size = 8 * 1024;
    config_.temp_root = dir_.Sub("cluster");
    cluster_ = std::make_unique<SimulatedCluster>(config_);
    runtime_ = std::make_unique<PregelixRuntime>(cluster_.get(), &dfs_);
  }

  /// A small symmetric (undirected) test graph.
  void MakeUndirected(int64_t n, const std::string& dir) {
    GraphStats stats;
    ASSERT_TRUE(GenerateBtcLike(dfs_, dir, 3, n, 6.0, 42, &stats).ok());
  }
  /// A small directed power-law graph.
  void MakeDirected(int64_t n, const std::string& dir) {
    GraphStats stats;
    ASSERT_TRUE(GenerateWebmapLike(dfs_, dir, 3, n, 5.0, 42, &stats).ok());
  }

  /// Runs `program` on `input` under `groupby` and returns the dumped part
  /// files, name -> bytes.
  std::map<std::string, std::string> RunAndDump(PregelProgram* program,
                                                const std::string& input,
                                                GroupByStrategy groupby,
                                                JobResult* result) {
    PregelixJobConfig job;
    job.name = "dump";
    job.input_dir = input;
    job.output_dir = "output/" + input + "-" + GroupByStrategyName(groupby);
    job.groupby = groupby;
    const Status s = runtime_->Run(program, job, result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::map<std::string, std::string> files;
    std::vector<std::string> names;
    EXPECT_TRUE(dfs_.List(job.output_dir, &names).ok());
    for (const std::string& name : names) {
      EXPECT_TRUE(dfs_.Read(job.output_dir + "/" + name, &files[name]).ok());
    }
    return files;
  }

  TempDir dir_{"pregel-test"};
  DistributedFileSystem dfs_;
  ClusterConfig config_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<PregelixRuntime> runtime_;
};

TEST_F(PregelRuntimeTest, PageRankMatchesReference) {
  MakeDirected(300, "input/pr");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/pr", &graph).ok());
  const std::vector<double> expected = PageRankRef(graph, 10);

  PageRankProgram program(10);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "pr";
  job.input_dir = "input/pr";
  job.output_dir = "output/pr";
  job.join = JoinStrategy::kFullOuter;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(result.supersteps, 11);

  auto output = ParseOutput(dfs_, "output/pr");
  ASSERT_EQ(output.size(), static_cast<size_t>(graph.num_vertices()));
  double sum = 0;
  for (auto& [vid, value] : output) {
    const double rank = std::stod(value);
    EXPECT_NEAR(rank, expected[vid], 1e-9) << "vid " << vid;
    sum += rank;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

// Operator activations run on the cluster's long-lived task threads: once
// the first superstep has run, neither the rest of the job nor a second job
// on the same cluster starts a thread.
TEST_F(PregelRuntimeTest, NoTaskThreadStartsAfterTheFirstSuperstep) {
  MakeDirected(300, "input/pool");
  // threads_started() whenever a job for superstep 2 or later is built.
  std::vector<uint64_t> started;
  struct TamperGuard {
    ~TamperGuard() { SetSuperstepSpecTamperForTesting(nullptr); }
  } guard;
  SetSuperstepSpecTamperForTesting([&](JobRuntimeContext* ctx, JobSpec*) {
    if (ctx->current_superstep > 1) {
      started.push_back(cluster_->threads_started());
    }
  });

  PageRankProgram pagerank(5);
  PageRankProgram::Adapter pagerank_adapter(&pagerank);
  PregelixJobConfig first;
  first.name = "pool-pr";
  first.input_dir = "input/pool";
  first.output_dir = "output/pool-pr";
  JobResult result;
  Status s = runtime_->Run(&pagerank_adapter, first, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const size_t first_job_supersteps = started.size();
  ASSERT_GE(first_job_supersteps, 2u);

  SsspProgram sssp(0);
  SsspProgram::Adapter sssp_adapter(&sssp);
  PregelixJobConfig second = first;
  second.name = "pool-sssp";
  second.output_dir = "output/pool-sssp";
  s = runtime_->Run(&sssp_adapter, second, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_GT(started.size(), first_job_supersteps);

  // The widest job is a superstep: P compute + P combine + 1 global-agg.
  const uint64_t width = 2 * cluster_->num_partitions() + 1;
  for (size_t i = 0; i < started.size(); ++i) {
    EXPECT_EQ(started[i], width) << "superstep job " << i;
  }
  EXPECT_EQ(cluster_->threads_started(), width);
}

TEST_F(PregelRuntimeTest, SsspLeftOuterMatchesBfs) {
  MakeUndirected(400, "input/sssp");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/sssp", &graph).ok());
  const std::vector<double> expected = SsspRef(graph, 0);

  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "sssp";
  job.input_dir = "input/sssp";
  job.output_dir = "output/sssp";
  job.join = JoinStrategy::kLeftOuter;
  job.groupby = GroupByStrategy::kHashSort;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ParseOutput(dfs_, "output/sssp");
  ASSERT_EQ(output.size(), static_cast<size_t>(graph.num_vertices()));
  for (auto& [vid, value] : output) {
    if (expected[vid] < 0) {
      EXPECT_EQ(value, "inf");
    } else {
      EXPECT_NEAR(std::stod(value), expected[vid], 1e-9) << "vid " << vid;
    }
  }
}

TEST_F(PregelRuntimeTest, ConnectedComponentsMatchesUnionFind) {
  MakeUndirected(300, "input/cc");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/cc", &graph).ok());
  const std::vector<int64_t> expected = CcRef(graph);

  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "cc";
  job.input_dir = "input/cc";
  job.output_dir = "output/cc";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ParseOutput(dfs_, "output/cc");
  ASSERT_EQ(output.size(), static_cast<size_t>(graph.num_vertices()));
  for (auto& [vid, value] : output) {
    EXPECT_EQ(std::stoll(value), expected[vid]) << "vid " << vid;
  }
}

TEST_F(PregelRuntimeTest, ReachabilityMatchesBfs) {
  MakeDirected(300, "input/reach");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/reach", &graph).ok());
  const std::vector<bool> expected = ReachabilityRef(graph, 5);

  ReachabilityProgram program(5);
  ReachabilityProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "reach";
  job.input_dir = "input/reach";
  job.output_dir = "output/reach";
  job.join = JoinStrategy::kLeftOuter;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ParseOutput(dfs_, "output/reach");
  for (auto& [vid, value] : output) {
    EXPECT_EQ(value == "reachable", static_cast<bool>(expected[vid]))
        << "vid " << vid;
  }
}

TEST_F(PregelRuntimeTest, TriangleCountMatchesReference) {
  MakeUndirected(150, "input/tri");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/tri", &graph).ok());
  const uint64_t expected = TriangleCountRef(graph);

  TriangleCountProgram program;
  TriangleCountProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "tri";
  job.input_dir = "input/tri";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  int64_t total = 0;
  ASSERT_TRUE(DeserializeValue(Slice(result.final_gs.aggregate), &total));
  EXPECT_EQ(static_cast<uint64_t>(total), expected);
}

TEST_F(PregelRuntimeTest, StatsTrackLiveVerticesAndMessages) {
  MakeUndirected(200, "input/stats");
  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "stats";
  job.input_dir = "input/stats";
  JobResult result;
  ASSERT_TRUE(runtime_->Run(&adapter, job, &result).ok());
  ASSERT_GT(result.superstep_stats.size(), 2u);
  // Superstep 1: only the source updates and messages its neighbors.
  EXPECT_GT(result.superstep_stats[0].messages, 0);
  // The frontier stays bounded by the vertex count.
  for (const SuperstepStats& stats : result.superstep_stats) {
    EXPECT_LE(stats.messages, result.final_gs.num_vertices);
    EXPECT_GE(stats.sim_seconds, 0.0);
  }
  // Final superstep produced no messages; job halted.
  EXPECT_EQ(result.superstep_stats.back().messages, 0);
  EXPECT_TRUE(result.final_gs.halt);
}

// Messages to vids outside the loaded range go through the dense group-by's
// overflow on both the send and the receive side; the dump must match the
// sort group-by's byte for byte.
TEST_F(PregelRuntimeTest, DenseGroupByMatchesSortForVerticesCreatedOutsideTheRange) {
  MakeUndirected(300, "input/spread");
  SpreadBeyondRangeProgram program;
  SpreadBeyondRangeProgram::Adapter adapter(&program);
  JobResult dense, sorted;
  const auto dense_files =
      RunAndDump(&adapter, "input/spread", GroupByStrategy::kDense, &dense);
  const auto sort_files =
      RunAndDump(&adapter, "input/spread", GroupByStrategy::kSort, &sorted);
  ASSERT_FALSE(dense_files.empty());
  EXPECT_TRUE(dense_files == sort_files);
  // 300 loaded; 601 created in superstep 1 (vertex 300 among them) and
  // 600 more in superstep 2.
  EXPECT_EQ(dense.final_gs.num_vertices, 1501);
  ASSERT_FALSE(dense.superstep_stats.empty());
  for (const SuperstepStats& stats : dense.superstep_stats) {
    EXPECT_EQ(stats.groupby_used, GroupByStrategy::kDense)
        << "superstep " << stats.superstep;
  }
}

// Vids at both ends of int64: the range has 2^64 - 1 slots, so the dense
// hint must fall back to sort (computing the span without signed overflow,
// which UBSan checks) and produce the sort plan's bytes.
TEST_F(PregelRuntimeTest, DenseGroupByFallsBackForAnExtremeVidRange) {
  const int64_t lo = std::numeric_limits<int64_t>::min() + 1;
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // An undirected path lo - -5 - 0 - 7 - hi, over two part files.
  const std::string a = std::to_string(lo), b = std::to_string(hi);
  ASSERT_TRUE(dfs_.Write("input/extreme/part-0",
                         a + " -5\n-5 " + a + " 0\n0 -5 7\n").ok());
  ASSERT_TRUE(dfs_.Write("input/extreme/part-1", "7 0 " + b + "\n" + b + " 7\n")
                  .ok());
  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  JobResult dense, sorted;
  const auto dense_files =
      RunAndDump(&adapter, "input/extreme", GroupByStrategy::kDense, &dense);
  const auto sort_files =
      RunAndDump(&adapter, "input/extreme", GroupByStrategy::kSort, &sorted);
  ASSERT_FALSE(dense_files.empty());
  EXPECT_TRUE(dense_files == sort_files);
  ASSERT_FALSE(dense.superstep_stats.empty());
  for (const SuperstepStats& stats : dense.superstep_stats) {
    EXPECT_EQ(stats.groupby_used, GroupByStrategy::kSort)
        << "superstep " << stats.superstep;
  }
  auto output = ParseOutput(dfs_, "output/input/extreme-dense");
  ASSERT_EQ(output.size(), 5u);
  for (const auto& [vid, label] : output) {
    EXPECT_EQ(label, a) << "vid " << vid;
  }
}

}  // namespace
}  // namespace pregelix
