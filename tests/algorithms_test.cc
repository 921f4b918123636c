#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

class AlgorithmsTest : public ::testing::Test {
 protected:
  AlgorithmsTest() : dfs_(dir_.Sub("dfs")) {
    ClusterConfig config;
    config.num_workers = 3;
    config.worker_ram_bytes = 8u << 20;
    config.temp_root = dir_.Sub("cluster");
    cluster_ = std::make_unique<SimulatedCluster>(config);
    runtime_ = std::make_unique<PregelixRuntime>(cluster_.get(), &dfs_);
  }

  std::map<int64_t, std::string> RunAndDump(PregelProgram* program,
                                            PregelixJobConfig job,
                                            JobResult* result = nullptr) {
    static int counter = 0;
    job.output_dir = "out-" + std::to_string(counter++);
    JobResult local;
    Status s = runtime_->Run(program, job, result != nullptr ? result : &local);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::map<int64_t, std::string> out;
    std::vector<std::string> names;
    EXPECT_TRUE(dfs_.List(job.output_dir, &names).ok());
    for (const std::string& name : names) {
      std::string contents;
      EXPECT_TRUE(dfs_.Read(job.output_dir + "/" + name, &contents).ok());
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

  TempDir dir_{"algos-test"};
  DistributedFileSystem dfs_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<PregelixRuntime> runtime_;
};

TEST_F(AlgorithmsTest, BfsTreeParentsAreOneHopCloser) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "bfs-in", 3, 600, 6.0, 31, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "bfs-in", &graph).ok());
  const std::vector<double> dist = SsspRef(graph, 0);

  BfsTreeProgram program(0);
  BfsTreeProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "bfs-tree";
  job.input_dir = "bfs-in";
  auto parents = RunAndDump(&adapter, job);
  ASSERT_EQ(parents.size(), static_cast<size_t>(graph.num_vertices()));
  for (auto& [vid, value] : parents) {
    const int64_t parent = std::stoll(value);
    if (vid == 0) {
      EXPECT_EQ(parent, 0);
      continue;
    }
    if (dist[vid] < 0) {
      EXPECT_EQ(parent, -1) << "unreachable vertex got a parent";
      continue;
    }
    ASSERT_GE(parent, 0) << "reachable vertex " << vid << " has no parent";
    // The parent is exactly one BFS level above.
    EXPECT_EQ(dist[parent] + 1, dist[vid]) << "vid " << vid;
    // And the tree edge exists in the graph.
    const auto& adj = graph.adj[parent];
    EXPECT_NE(std::find(adj.begin(), adj.end(), vid), adj.end());
  }
}

TEST_F(AlgorithmsTest, SccMatchesTarjanOnDirectedGraph) {
  // A directed graph with interesting SCC structure: several cycles of
  // different lengths joined by one-way bridges, plus acyclic tails.
  InMemoryGraph graph;
  graph.adj.resize(30);
  auto cycle = [&](int64_t start, int64_t len) {
    for (int64_t i = 0; i < len; ++i) {
      graph.adj[start + i].push_back(start + (i + 1) % len);
    }
  };
  cycle(0, 5);    // SCC {0..4}
  cycle(5, 3);    // SCC {5..7}
  cycle(8, 7);    // SCC {8..14}
  graph.adj[2].push_back(5);    // bridge 1st -> 2nd
  graph.adj[6].push_back(8);    // bridge 2nd -> 3rd
  graph.adj[14].push_back(15);  // tail 15 -> 16 -> ... (singletons)
  for (int64_t v = 15; v < 29; ++v) graph.adj[v].push_back(v + 1);
  graph.adj[29].push_back(20);  // back edge creating SCC {20..29}
  ASSERT_TRUE(WriteGraph(dfs_, "scc-in", graph, 3).ok());
  const std::vector<int64_t> expected = SccRef(graph);

  SccProgram program;
  SccProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "scc";
  job.input_dir = "scc-in";
  job.max_supersteps = 500;
  JobResult result;
  auto labels = RunAndDump(&adapter, job, &result);
  EXPECT_TRUE(result.final_gs.halt) << "SCC did not converge";
  ASSERT_EQ(labels.size(), static_cast<size_t>(graph.num_vertices()));
  for (auto& [vid, value] : labels) {
    EXPECT_EQ(std::stoll(value), expected[vid]) << "vid " << vid;
  }
}

TEST_F(AlgorithmsTest, SccOnRandomDirectedGraphs) {
  GraphStats stats;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "scc-web", 3, 200, 3.0, 77, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "scc-web", &graph).ok());
  const std::vector<int64_t> expected = SccRef(graph);

  SccProgram program;
  SccProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "scc-web";
  job.input_dir = "scc-web";
  job.max_supersteps = 2000;
  JobResult result;
  auto labels = RunAndDump(&adapter, job, &result);
  EXPECT_TRUE(result.final_gs.halt) << "SCC did not converge";
  for (auto& [vid, value] : labels) {
    EXPECT_EQ(std::stoll(value), expected[vid]) << "vid " << vid;
  }
}

TEST_F(AlgorithmsTest, MaximalCliquesOnKnownGraph) {
  // Two overlapping triangles sharing an edge plus a K4: cliques (>=3) are
  // {0,1,2}, {1,2,3}, and {4,5,6,7}.
  InMemoryGraph graph;
  graph.adj.resize(8);
  auto undirected = [&](int64_t a, int64_t b) {
    graph.adj[a].push_back(b);
    graph.adj[b].push_back(a);
  };
  undirected(0, 1);
  undirected(0, 2);
  undirected(1, 2);
  undirected(1, 3);
  undirected(2, 3);
  for (int64_t a = 4; a < 8; ++a) {
    for (int64_t b = a + 1; b < 8; ++b) undirected(a, b);
  }
  ASSERT_TRUE(WriteGraph(dfs_, "clique-in", graph, 2).ok());

  MaximalCliquesProgram program;
  MaximalCliquesProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "cliques";
  job.input_dir = "clique-in";
  JobResult result;
  RunAndDump(&adapter, job, &result);
  std::pair<int64_t, int64_t> agg{0, 0};
  ASSERT_TRUE(DeserializeValue(Slice(result.final_gs.aggregate), &agg));
  // Each clique is counted at its minimum vertex: {0,1,2} at 0, {1,2,3} at
  // 1, K4 at 4 -> 3 maximal cliques, largest size 4.
  EXPECT_EQ(agg.first, 3);
  EXPECT_EQ(agg.second, 4);
}

TEST_F(AlgorithmsTest, GraphSamplingVisitsRequestedWalkLengths) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "gs-in", 3, 500, 6.0, 5, &stats).ok());
  GraphSamplingProgram program(/*walkers=*/8, /*steps=*/20);
  GraphSamplingProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "sampling";
  job.input_dir = "gs-in";
  auto visits = RunAndDump(&adapter, job);
  int64_t total_visits = 0, visited_vertices = 0;
  for (auto& [vid, value] : visits) {
    const int64_t count = std::stoll(value);
    total_visits += count;
    if (count > 0) ++visited_vertices;
  }
  // 8 walkers each take up to 20 hops (dead ends can cut a walk short).
  EXPECT_GT(total_visits, 8 * 10);
  EXPECT_LE(total_visits, 8 * 21);
  EXPECT_GT(visited_vertices, 20);
}

TEST_F(AlgorithmsTest, ListRankingByPointerJumping) {
  // Three disjoint linked lists of different lengths.
  InMemoryGraph graph;
  graph.adj.resize(180);
  auto make_list = [&](int64_t start, int64_t len) {
    for (int64_t i = 0; i < len - 1; ++i) {
      graph.adj[start + i].push_back(start + i + 1);
    }
  };
  make_list(0, 100);
  make_list(100, 50);
  make_list(150, 30);
  ASSERT_TRUE(WriteGraph(dfs_, "list-in", graph, 3).ok());

  ListRankingProgram program;
  ListRankingProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "list-ranking";
  job.input_dir = "list-in";
  JobResult result;
  auto ranks = RunAndDump(&adapter, job, &result);
  ASSERT_EQ(ranks.size(), 180u);
  auto check_list = [&](int64_t start, int64_t len) {
    for (int64_t i = 0; i < len; ++i) {
      EXPECT_EQ(std::stoll(ranks[start + i]), len - 1 - i)
          << "node " << start + i;
    }
  };
  check_list(0, 100);
  check_list(100, 50);
  check_list(150, 30);
  // Pointer jumping is logarithmic: a 100-node list must finish in far
  // fewer supersteps than 100 (2 supersteps per doubling round).
  EXPECT_LT(result.supersteps, 30);
}

/// Pregel semantics: a message sent to a nonexistent vid creates the vertex
/// (the left-outer case of the join, paper Section 3).
class GhostWriterProgram : public TypedVertexProgram<int64_t, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<int64_t, Empty, int64_t>;

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    if (vertex.superstep() == 1 && vertex.id() < 1000) {
      // Message a vid far outside the loaded graph.
      vertex.SendMessage(vertex.id() + 100000, vertex.id());
    }
    int64_t sum = vertex.value();
    while (messages.HasNext()) sum += messages.Next();
    vertex.set_value(sum);
    vertex.VoteToHalt();
  }
  bool has_combiner() const override { return true; }
  void Combine(int64_t* acc, const int64_t& m) const override { *acc += m; }
  std::string FormatValue(int64_t, const int64_t& v) const override {
    return std::to_string(v);
  }
};

TEST_F(AlgorithmsTest, MessagesToMissingVerticesCreateThem) {
  InMemoryGraph graph;
  graph.adj.resize(20);  // vids 0..19, no edges needed
  ASSERT_TRUE(WriteGraph(dfs_, "ghost-in", graph, 3).ok());
  for (auto join : {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
    GhostWriterProgram program;
    GhostWriterProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "ghost";
    job.input_dir = "ghost-in";
    job.join = join;
    JobResult result;
    auto output = RunAndDump(&adapter, job, &result);
    EXPECT_EQ(result.final_gs.num_vertices, 40);
    ASSERT_EQ(output.size(), 40u) << "join mode "
                                  << static_cast<int>(join);
    for (int64_t v = 0; v < 20; ++v) {
      ASSERT_TRUE(output.count(v + 100000)) << v;
      EXPECT_EQ(std::stoll(output[v + 100000]), v);
    }
  }
}

TEST_F(AlgorithmsTest, AdaptiveJoinSwitchesPlansAndStaysCorrect) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "ad-in", 3, 800, 6.0, 12, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "ad-in", &graph).ok());
  const std::vector<double> expected = SsspRef(graph, 0);

  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "auto-sssp";
  job.input_dir = "ad-in";
  job.join = JoinStrategy::kAuto;
  JobResult result;
  auto output = RunAndDump(&adapter, job, &result);
  for (auto& [vid, value] : output) {
    if (expected[vid] < 0) {
      EXPECT_EQ(value, "inf");
    } else {
      EXPECT_NEAR(std::stod(value), expected[vid], 1e-9) << "vid " << vid;
    }
  }
  // SSSP's sparse frontier must trip the optimizer's switch to left outer.
  bool saw_foj = false, saw_loj = false;
  for (const SuperstepStats& stats : result.superstep_stats) {
    (stats.used_left_outer_join ? saw_loj : saw_foj) = true;
  }
  EXPECT_TRUE(saw_foj) << "superstep 1 should scan (everything live)";
  EXPECT_TRUE(saw_loj) << "sparse frontier should switch to probing";
}

TEST_F(AlgorithmsTest, AdaptiveJoinStaysFullOuterForPageRank) {
  GraphStats stats;
  ASSERT_TRUE(GenerateWebmapLike(dfs_, "ad-pr", 3, 500, 6.0, 3, &stats).ok());
  PageRankProgram program(4);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "auto-pr";
  job.input_dir = "ad-pr";
  job.join = JoinStrategy::kAuto;
  JobResult result;
  ASSERT_TRUE(runtime_->Run(&adapter, job, &result).ok());
  // Every vertex stays live until the final vote: never switch.
  for (const SuperstepStats& stats : result.superstep_stats) {
    EXPECT_FALSE(stats.used_left_outer_join)
        << "superstep " << stats.superstep;
  }
}

}  // namespace
}  // namespace pregelix
