#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/temp_dir.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/sampler.h"
#include "graph/text_io.h"

namespace pregelix {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() : dfs_(dir_.Sub("dfs")) {}

  TempDir dir_{"graph-test"};
  DistributedFileSystem dfs_;
};

TEST_F(GraphTest, TextRoundTrip) {
  InMemoryGraph graph;
  graph.adj = {{1, 2}, {2}, {}, {0, 1, 2}};
  ASSERT_TRUE(WriteGraph(dfs_, "g", graph, 2).ok());
  InMemoryGraph loaded;
  ASSERT_TRUE(LoadGraph(dfs_, "g", &loaded).ok());
  EXPECT_EQ(loaded.adj, graph.adj);
  EXPECT_EQ(loaded.num_edges(), 6u);
}

TEST_F(GraphTest, WebmapLikeHitsDegreeTarget) {
  GraphStats stats;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "web", 4, 5000, 8.0, 1, &stats).ok());
  EXPECT_EQ(stats.num_vertices, 5000);
  EXPECT_NEAR(stats.avg_degree(), 8.0, 2.5);
  EXPECT_GT(stats.size_bytes, 0u);
  // Degree distribution should be skewed: some vertex has >4x the mean.
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "web", &graph).ok());
  size_t max_degree = 0;
  for (const auto& adj : graph.adj) max_degree = std::max(max_degree, adj.size());
  EXPECT_GT(max_degree, 32u);
}

TEST_F(GraphTest, WebmapLikeIsDeterministic) {
  GraphStats a, b;
  ASSERT_TRUE(GenerateWebmapLike(dfs_, "wa", 2, 1000, 5.0, 9, &a).ok());
  ASSERT_TRUE(GenerateWebmapLike(dfs_, "wb", 2, 1000, 5.0, 9, &b).ok());
  EXPECT_EQ(a.num_edges, b.num_edges);
  InMemoryGraph ga, gb;
  ASSERT_TRUE(LoadGraph(dfs_, "wa", &ga).ok());
  ASSERT_TRUE(LoadGraph(dfs_, "wb", &gb).ok());
  EXPECT_EQ(ga.adj, gb.adj);
}

TEST_F(GraphTest, BtcLikeIsSymmetricWithTargetDegree) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "btc", 3, 2000, 8.94, 2, &stats).ok());
  EXPECT_NEAR(stats.avg_degree(), 8.94, 0.5);
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "btc", &graph).ok());
  // Symmetry: u in adj[v] iff v in adj[u] (as multisets).
  std::multiset<std::pair<int64_t, int64_t>> fwd, rev;
  for (int64_t v = 0; v < graph.num_vertices(); ++v) {
    for (int64_t d : graph.adj[v]) {
      fwd.insert({v, d});
      rev.insert({d, v});
    }
  }
  EXPECT_EQ(fwd, rev);
  // Ring lattice guarantees one connected component.
  const std::vector<int64_t> cc = CcRef(graph);
  EXPECT_TRUE(std::all_of(cc.begin(), cc.end(),
                          [](int64_t c) { return c == 0; }));
}

TEST_F(GraphTest, ScaleUpMakesDisjointCopies) {
  GraphStats base;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "base", 2, 500, 6.0, 3, &base).ok());
  GraphStats scaled;
  ASSERT_TRUE(ScaleUpGraph(dfs_, "base", "scaled", 2, 3, &scaled).ok());
  EXPECT_EQ(scaled.num_vertices, 3 * base.num_vertices);
  EXPECT_EQ(scaled.num_edges, 3 * base.num_edges);
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "scaled", &graph).ok());
  // Three disjoint copies -> exactly 3 components.
  const std::vector<int64_t> cc = CcRef(graph);
  std::set<int64_t> components(cc.begin(), cc.end());
  EXPECT_EQ(components.size(), 3u);
}

TEST_F(GraphTest, MeasureMatchesGenerateStats) {
  GraphStats generated;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "m", 2, 800, 4.0, 5, &generated).ok());
  GraphStats measured;
  ASSERT_TRUE(MeasureGraph(dfs_, "m", &measured).ok());
  EXPECT_EQ(measured.num_vertices, generated.num_vertices);
  EXPECT_EQ(measured.num_edges, generated.num_edges);
  EXPECT_EQ(measured.size_bytes, generated.size_bytes);
}

TEST_F(GraphTest, RandomWalkSamplerHitsTargetSize) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "full", 2, 3000, 8.0, 4, &stats).ok());
  InMemoryGraph full;
  ASSERT_TRUE(LoadGraph(dfs_, "full", &full).ok());
  InMemoryGraph sample;
  ASSERT_TRUE(RandomWalkSample(full, 500, 11, 0.15, &sample).ok());
  EXPECT_EQ(sample.num_vertices(), 500);
  // Sampled vids are dense and edges stay in range.
  for (int64_t v = 0; v < sample.num_vertices(); ++v) {
    for (int64_t d : sample.adj[v]) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, sample.num_vertices());
    }
  }
  EXPECT_GT(sample.num_edges(), 0u);
}

// Hostile adjacency text returns Corruption before anything is sized by an
// id: a vid near INT64_MAX used to throw std::length_error, and one of
// 10^11 std::bad_alloc.
TEST_F(GraphTest, LoadGraphRejectsIdsBeyondTheInputsIdCount) {
  int case_id = 0;
  for (const char* text : {"9223372036854775806 0\n", "100000000000 0\n",
                           "0 1\n1 100000000000\n", "0 -1\n",
                           "-3 0\n"}) {
    const std::string dir = "hostile-" + std::to_string(case_id++);
    ASSERT_TRUE(dfs_.Write(dir + "/part-0", text).ok());
    InMemoryGraph graph;
    const Status s = LoadGraph(dfs_, dir, &graph);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << text << s.ToString();
    EXPECT_TRUE(graph.adj.empty()) << text;
  }
}

// A destination with no line of its own becomes a vertex with no
// out-edges, so nothing downstream indexes past the adjacency array (the
// sampler used to read input.adj[5] of a 3-element array here).
TEST_F(GraphTest, LoadGraphSizesByTheLargestIdIncludingDestinations) {
  ASSERT_TRUE(dfs_.Write("dangling/part-0", "0 5\n1 0\n2 0\n").ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "dangling", &graph).ok());
  ASSERT_EQ(graph.num_vertices(), 6);
  EXPECT_EQ(graph.adj[0], std::vector<int64_t>{5});
  EXPECT_EQ(graph.adj[2], std::vector<int64_t>{0});
  for (int64_t v = 3; v < 6; ++v) EXPECT_TRUE(graph.adj[v].empty()) << v;
  InMemoryGraph sample;
  ASSERT_TRUE(RandomWalkSample(graph, 2, 1, 0.15, &sample).ok());
  for (const auto& dests : sample.adj) {
    for (int64_t d : dests) EXPECT_LT(d, sample.num_vertices());
  }
}

TEST_F(GraphTest, ReferenceAlgorithmsAgreeOnToyGraph) {
  // Path 0-1-2 plus isolated 3, as directed symmetric edges.
  InMemoryGraph graph;
  graph.adj = {{1}, {0, 2}, {1}, {}};
  const auto dist = SsspRef(graph, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], -1);
  const auto cc = CcRef(graph);
  EXPECT_EQ(cc[0], 0);
  EXPECT_EQ(cc[2], 0);
  EXPECT_EQ(cc[3], 3);
  const auto reach = ReachabilityRef(graph, 1);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);
  // Triangle 0-1-2 plus the path: K3 graph.
  InMemoryGraph tri;
  tri.adj = {{1, 2}, {0, 2}, {0, 1}};
  EXPECT_EQ(TriangleCountRef(tri), 1u);
  const auto pr = PageRankRef(tri, 30);
  EXPECT_NEAR(pr[0] + pr[1] + pr[2], 1.0, 1e-9);
  EXPECT_NEAR(pr[0], pr[1], 1e-9);  // symmetric graph, equal ranks
}

}  // namespace
}  // namespace pregelix
