// Multi-tenant analytics: several users run jobs on the same cluster at
// once (the throughput scenario of paper Section 7.4 / Figure 13).
//
// Three tenants share one simulated cluster — its workers' buffer caches
// and disks are common resources. Each tenant runs a different algorithm on
// a different dataset concurrently; all results are verified. The paper's
// point: the dataflow runtime's budgeted operators and spilling buffer
// cache make concurrent jobs *degrade* instead of *die* — the
// process-centric systems could not sustain any concurrency.
//
//   $ ./multi_tenant

#include <cstdio>
#include <thread>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "pregel/runtime.h"

using namespace pregelix;

int main() {
  TempDir scratch("multi-tenant");
  DistributedFileSystem dfs(scratch.Sub("dfs"));
  ClusterConfig config;
  config.num_workers = 4;
  config.worker_ram_bytes = 1 << 20;  // deliberately tight: tenants contend
  config.temp_root = scratch.Sub("cluster");
  SimulatedCluster cluster(config);

  GraphStats web_stats, btc_stats;
  PREGELIX_CHECK_OK(
      GenerateWebmapLike(dfs, "tenant-a/web", 4, 6000, 8.0, 1, &web_stats));
  PREGELIX_CHECK_OK(
      GenerateBtcLike(dfs, "tenant-b/btc", 4, 6000, 8.94, 2, &btc_stats));
  printf("shared cluster: %d workers x %zu KB RAM; tenant data %.2f + "
         "%.2f MB\n",
         config.num_workers, config.worker_ram_bytes / 1024,
         static_cast<double>(web_stats.size_bytes) / (1 << 20),
         static_cast<double>(btc_stats.size_bytes) / (1 << 20));

  struct Tenant {
    const char* who;
    JobResult result;
    Status status;
  };
  Tenant tenants[3] = {{"analyst-A (PageRank on the crawl)", {}, Status::OK()},
                       {"analyst-B (SSSP on the RDF graph)", {}, Status::OK()},
                       {"analyst-C (CC on the RDF graph)", {}, Status::OK()}};

  std::thread a([&]() {
    PregelixRuntime runtime(&cluster, &dfs);
    PageRankProgram program(8);
    PageRankProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "tenant-a";
    job.input_dir = "tenant-a/web";
    job.output_dir = "tenant-a/ranks";
    tenants[0].status = runtime.Run(&adapter, job, &tenants[0].result);
  });
  std::thread b([&]() {
    PregelixRuntime runtime(&cluster, &dfs);
    SsspProgram program(0);
    SsspProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "tenant-b";
    job.input_dir = "tenant-b/btc";
    job.output_dir = "tenant-b/dist";
    job.join = JoinStrategy::kAuto;
    tenants[1].status = runtime.Run(&adapter, job, &tenants[1].result);
  });
  std::thread c([&]() {
    PregelixRuntime runtime(&cluster, &dfs);
    ConnectedComponentsProgram program;
    ConnectedComponentsProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "tenant-c";
    job.input_dir = "tenant-b/btc";
    job.output_dir = "tenant-c/components";
    job.storage = VertexStorage::kLsmBTree;
    tenants[2].status = runtime.Run(&adapter, job, &tenants[2].result);
  });
  a.join();
  b.join();
  c.join();

  printf("\n%-38s %-10s %-12s %-14s\n", "tenant", "supersteps", "sim-seconds",
         "verdict");
  for (const Tenant& tenant : tenants) {
    printf("%-38s %-10lld %-12.3f %-14s\n", tenant.who,
           static_cast<long long>(tenant.result.supersteps),
           tenant.result.total_sim_seconds,
           tenant.status.ok() ? "completed" : tenant.status.ToString().c_str());
  }
  uint64_t disk = 0;
  for (const auto& snap : cluster.SnapshotAll()) {
    disk += snap.disk_read_bytes + snap.disk_write_bytes;
  }
  printf("\ncontention was absorbed by spilling: %.1f MB of shared "
         "buffer-cache and operator I/O\n",
         static_cast<double>(disk) / (1 << 20));
  printf("(a process-centric runtime at this budget fails outright — see "
         "baselines_test.EnginesFailWhenMemoryTooSmall)\n");
  return 0;
}
