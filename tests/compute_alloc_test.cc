#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "algorithms/pagerank.h"
#include "common/temp_dir.h"
#include "counting_allocator.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

constexpr int64_t kVertices = 20000;
constexpr int kWorkers = 4;

/// Heap allocations of one whole PageRank job (load, supersteps, dump).
uint64_t PageRankJobAllocs(PregelixRuntime* runtime, int iterations) {
  PageRankProgram program(iterations);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;  // the defaults, as `pregelix run` uses them
  job.name = "pagerank-" + std::to_string(iterations);
  job.input_dir = "graph";
  job.output_dir = "out-" + std::to_string(iterations);
  JobResult result;
  const uint64_t before = pregelix_test::HeapAllocs();
  const Status s = runtime->Run(&adapter, job, &result);
  const uint64_t after = pregelix_test::HeapAllocs();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // Supersteps 1..iterations send; superstep iterations + 1 halts.
  EXPECT_EQ(result.supersteps, iterations + 1);
  return after - before;
}

// The per-vertex compute path of a PageRank superstep allocates nothing in
// steady state (DESIGN.md §13): the typed adapter decodes and encodes the
// record in per-thread scratch, and hands messages to the dense mailbox
// without a string each. Two jobs on one runtime differ
// only in their 5 extra supersteps, so their difference in allocations,
// over 5 × |V|, is what one superstep allocates per vertex; load, dump and
// the runtime's fixed cost cancel out.
TEST(ComputeAllocTest, PageRankSuperstepAllocatesLessThanHalfPerVertex) {
  TempDir dir("compute-alloc");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  GraphStats stats;
  ASSERT_TRUE(GenerateWebmapLike(dfs, "graph", kWorkers, kVertices, 8.0, 7,
                                 &stats)
                  .ok());
  ClusterConfig config;
  config.num_workers = kWorkers;
  config.worker_ram_bytes = 16u << 20;
  config.temp_root = dir.Sub("cluster");
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);

  const uint64_t eight = PageRankJobAllocs(&runtime, 8);
  const uint64_t three = PageRankJobAllocs(&runtime, 3);
  const double per_superstep =
      (static_cast<double>(eight) - static_cast<double>(three)) / 5.0;
  const double per_vertex_superstep = per_superstep / kVertices;
  // What the 3-iteration job allocates outside its 4 supersteps: load,
  // dump and the job's fixed cost.
  const double outside = (static_cast<double>(three) - 4 * per_superstep) /
                         static_cast<double>(kVertices);
  std::printf(
      "allocations: 8-iteration job %llu, 3-iteration job %llu; "
      "%.3f per vertex per superstep, %.2f per vertex outside supersteps\n",
      static_cast<unsigned long long>(eight),
      static_cast<unsigned long long>(three), per_vertex_superstep, outside);
  EXPECT_LE(per_vertex_superstep, 0.5);
}

}  // namespace
}  // namespace pregelix
