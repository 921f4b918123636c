#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "common/trace.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"
#include "storage/lsm_btree.h"

namespace pregelix {
namespace {

/// The paper's headline property: Pregelix runs out-of-core workloads
/// transparently. These tests pin the per-worker memory far below the data
/// size and check both correctness and that spilling actually happened.
class OutOfCoreTest : public ::testing::Test {
 protected:
  OutOfCoreTest() : dfs_(dir_.Sub("dfs")) {}

  std::unique_ptr<SimulatedCluster> MakeTinyCluster(size_t worker_ram) {
    ClusterConfig config;
    config.num_workers = 2;
    config.worker_ram_bytes = worker_ram;
    config.frame_size = 4 * 1024;
    config.page_size = 1024;
    config.temp_root = dir_.Sub("cluster-" + std::to_string(worker_ram) +
                                "-" + std::to_string(counter_++));
    return std::make_unique<SimulatedCluster>(config);
  }

  TempDir dir_{"ooc-test"};
  DistributedFileSystem dfs_;
  int counter_ = 0;
};

TEST_F(OutOfCoreTest, PageRankCorrectUnderMemoryPressure) {
  GraphStats stats;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "web", 2, 4000, 8.0, 3, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "web", &graph).ok());
  const std::vector<double> expected = PageRankRef(graph, 5);

  // ~128 KB of simulated RAM per worker versus a multi-MB working set.
  auto cluster = MakeTinyCluster(128 * 1024);
  PregelixRuntime runtime(cluster.get(), &dfs_);
  PageRankProgram program(5);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "pr-ooc";
  job.input_dir = "web";
  job.output_dir = "out";
  JobResult result;
  Status s = runtime.Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Spilling must actually have occurred (this is the out-of-core regime).
  uint64_t disk_bytes = 0;
  for (const auto& snap : cluster->SnapshotAll()) {
    disk_bytes += snap.disk_read_bytes + snap.disk_write_bytes;
  }
  EXPECT_GT(disk_bytes, stats.size_bytes)
      << "expected buffer-cache/group-by spills beyond the input size";

  std::vector<std::string> names;
  ASSERT_TRUE(dfs_.List("out", &names).ok());
  int64_t checked = 0;
  for (const std::string& name : names) {
    std::string contents;
    ASSERT_TRUE(dfs_.Read("out/" + name, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid;
      double rank;
      fields >> vid >> rank;
      EXPECT_NEAR(rank, expected[vid], 1e-9) << "vid " << vid;
      ++checked;
    }
  }
  EXPECT_EQ(checked, graph.num_vertices());
}

// The default plan at 4 MB per worker, as perfbench's pagerank-ooc runs
// it: the 256 KB group-by budget cannot hold one slot per vid of the 40,000
// (320 KB), but each of the 4 partitions' 10,000-slot receive arrays fits.
// So every superstep runs dense, sends uncombined and spills nothing, the
// ranks match the reference, and the supersteps' simtime repeats exactly.
TEST_F(OutOfCoreTest, DefaultPageRankRunsDenseAtFourMegabytesPerWorker) {
  GraphStats stats;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "web4", 4, 40000, 8.0, 11, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "web4", &graph).ok());
  const std::vector<double> expected = PageRankRef(graph, 4);

  std::vector<double> superstep_sim[2];
  for (int run = 0; run < 2; ++run) {
    ClusterConfig config;
    config.num_workers = 4;
    config.worker_ram_bytes = 4u << 20;
    config.temp_root = dir_.Sub("cluster-4mb-" + std::to_string(run));
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs_);
    PageRankProgram program(4);
    PageRankProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "pr-4mb";
    job.input_dir = "web4";
    job.output_dir = "out-4mb-" + std::to_string(run);
    JobResult result;
    Status s = runtime.Run(&adapter, job, &result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_FALSE(result.superstep_stats.empty());
    for (const SuperstepStats& step : result.superstep_stats) {
      EXPECT_EQ(step.groupby_used, GroupByStrategy::kDense)
          << "superstep " << step.superstep;
      EXPECT_EQ(step.spill_bytes, 0u) << "superstep " << step.superstep;
      superstep_sim[run].push_back(step.sim_seconds);
    }

    std::vector<std::string> names;
    ASSERT_TRUE(dfs_.List(job.output_dir, &names).ok());
    int64_t checked = 0;
    for (const std::string& name : names) {
      std::string contents;
      ASSERT_TRUE(dfs_.Read(job.output_dir + "/" + name, &contents).ok());
      std::istringstream lines(contents);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.empty()) continue;
        std::istringstream fields(line);
        int64_t vid;
        double rank;
        fields >> vid >> rank;
        EXPECT_NEAR(rank, expected[vid], 1e-9) << "vid " << vid;
        ++checked;
      }
    }
    EXPECT_EQ(checked, graph.num_vertices());
  }
  EXPECT_EQ(superstep_sim[0], superstep_sim[1]);
}

TEST_F(OutOfCoreTest, InMemoryAndOutOfCoreProduceIdenticalMetricsShape) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "btc", 2, 3000, 8.0, 5, &stats).ok());

  auto run = [&](size_t worker_ram, JobResult* result,
                 uint64_t* disk_bytes) {
    auto cluster = MakeTinyCluster(worker_ram);
    PregelixRuntime runtime(cluster.get(), &dfs_);
    ConnectedComponentsProgram program;
    ConnectedComponentsProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "cc-shape";
    job.input_dir = "btc";
    Status s = runtime.Run(&adapter, job, result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    *disk_bytes = 0;
    for (const auto& snap : cluster->SnapshotAll()) {
      *disk_bytes += snap.disk_read_bytes + snap.disk_write_bytes;
    }
  };
  JobResult big, small;
  uint64_t big_disk = 0, small_disk = 0;
  run(64u << 20, &big, &big_disk);
  run(96 * 1024, &small, &small_disk);
  // Same computation, same number of supersteps...
  EXPECT_EQ(big.supersteps, small.supersteps);
  EXPECT_EQ(big.final_gs.num_vertices, small.final_gs.num_vertices);
  // ...but the memory-starved run paid for it in I/O and simulated time.
  EXPECT_GT(small_disk, 2 * big_disk);
  EXPECT_GT(small.total_sim_seconds, big.total_sim_seconds);
}

TEST_F(OutOfCoreTest, LsmStorageAlsoRunsOutOfCore) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "btc2", 2, 2000, 6.0, 6, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "btc2", &graph).ok());
  const std::vector<double> expected = SsspRef(graph, 0);

  auto cluster = MakeTinyCluster(128 * 1024);
  PregelixRuntime runtime(cluster.get(), &dfs_);
  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "sssp-lsm-ooc";
  job.input_dir = "btc2";
  job.output_dir = "out-lsm";
  job.storage = VertexStorage::kLsmBTree;
  job.join = JoinStrategy::kLeftOuter;
  JobResult result;
  Status s = runtime.Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<std::string> names;
  ASSERT_TRUE(dfs_.List("out-lsm", &names).ok());
  int64_t checked = 0;
  for (const std::string& name : names) {
    std::string contents;
    ASSERT_TRUE(dfs_.Read("out-lsm/" + name, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid;
      double dist;
      fields >> vid >> dist;
      EXPECT_NEAR(dist, expected[vid], 1e-9) << "vid " << vid;
      ++checked;
    }
  }
  EXPECT_EQ(checked, graph.num_vertices());
}

// The left-outer join writes back through its probe cursor where it can
// and otherwise drops the cursor before it upserts. On LSM storage every
// update is an upsert, and a small memtable flushes and merges inside the
// supersteps: a merge that closed a component whose page the probe cursor
// still held would abort the job.
TEST_F(OutOfCoreTest, LeftOuterSsspOnLsmFlushesInsideSupersteps) {
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs_, "btc3", 2, 3000, 6.0, 7, &stats).ok());
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "btc3", &graph).ok());
  const std::vector<double> expected = SsspRef(graph, 0);

  Tracer tracer;
  tracer.Enable();
  ClusterConfig config;
  config.num_workers = 2;
  config.worker_ram_bytes = 1u << 20;  // a 64 KB memtable per partition
  config.temp_root = dir_.Sub("cluster-lsm-loj");
  config.tracer = &tracer;
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs_);
  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "sssp-lsm-loj";
  job.input_dir = "btc3";
  job.output_dir = "out-lsm-loj";
  job.storage = VertexStorage::kLsmBTree;
  job.join = JoinStrategy::kLeftOuter;
  JobResult result;
  Status s = runtime.Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // The load bulk-loads a component, so every flush is a superstep's.
  int flushes = 0, merges = 0;
  for (const TraceEvent& event : tracer.Collect()) {
    if (event.name == "lsm.flush_memtable") ++flushes;
    if (event.name == "lsm.merge") ++merges;
  }
  EXPECT_GT(flushes, LsmBTree::kMaxComponents);
  EXPECT_GT(merges, 0);

  std::vector<std::string> names;
  ASSERT_TRUE(dfs_.List("out-lsm-loj", &names).ok());
  int64_t checked = 0;
  for (const std::string& name : names) {
    std::string contents;
    ASSERT_TRUE(dfs_.Read("out-lsm-loj/" + name, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid;
      double dist;
      fields >> vid >> dist;
      EXPECT_NEAR(dist, expected[vid], 1e-9) << "vid " << vid;
      ++checked;
    }
  }
  EXPECT_EQ(checked, graph.num_vertices());
}

// A full-outer PageRank superstep on B-tree storage updates every vertex
// with a same-length record through the scan cursor: it pins each leaf once
// for the scan and nothing per vertex. A Get or an Upsert per updated
// vertex would pin at least once per vertex on top of the scan.
TEST_F(OutOfCoreTest, FullOuterPageRankWritesThroughTheScanCursor) {
  GraphStats stats;
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "web-wt", 2, 4000, 8.0, 9, &stats).ok());
  // Buffer-cache pins of a whole job, PageRank with `iterations` sending
  // supersteps; each job runs on a fresh cluster.
  auto job_pins = [&](int iterations, uint64_t* pins) {
    ClusterConfig config;
    config.num_workers = 2;
    config.temp_root = dir_.Sub("cluster-wt-" + std::to_string(iterations));
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs_);
    PageRankProgram program(iterations);
    PageRankProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "pr-write-through";
    job.input_dir = "web-wt";
    job.output_dir = "out-wt-" + std::to_string(iterations);
    job.join = JoinStrategy::kFullOuter;
    JobResult result;
    Status s = runtime.Run(&adapter, job, &result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    *pins = 0;
    for (int w = 0; w < cluster.num_workers(); ++w) {
      *pins += cluster.cache(w).hit_count() + cluster.cache(w).miss_count();
    }
  };
  uint64_t three = 0, four = 0;
  job_pins(3, &three);
  job_pins(4, &four);
  // The two jobs differ by one superstep that updates all 4,000 vertices.
  ASSERT_GT(four, three);
  EXPECT_LT(four - three, static_cast<uint64_t>(stats.num_vertices / 4));
}

}  // namespace
}  // namespace pregelix
