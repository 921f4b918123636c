// The TSan gate for the simulated cluster: real multi-worker Pregel jobs
// with every observability and fault-injection surface poked concurrently
// from the outside, the way a monitoring sidecar would.
//
// Built into the `tsan`-labeled ctest suite (PREGELIX_SANITIZE=thread); in
// plain builds it still runs as a tier-1 functional test with the runtime
// lock-order detector forced on, so a lock inversion anywhere under a job
// aborts the test with a two-sided report.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/fault_injection.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
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

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  ConcurrencyStressTest() : dfs_(dir_.Sub("dfs")) {
    config_.num_workers = 2;
    config_.partitions_per_worker = 2;
    config_.worker_ram_bytes = 8u << 20;
    config_.frame_size = 8 * 1024;
    config_.temp_root = dir_.Sub("cluster");
    // nullptr sinks = the process-global tracer/registry, shared with the
    // scraper threads below — that sharing is the point of this test.
    cluster_ = std::make_unique<SimulatedCluster>(config_);
    runtime_ = std::make_unique<PregelixRuntime>(cluster_.get(), &dfs_);
    // Force the runtime lock-order detector on even in NDEBUG builds: any
    // rank inversion or acquisition cycle under the stress aborts loudly.
    lock_order::SetEnabled(true);
    Tracer::Global().Enable();
  }

  ~ConcurrencyStressTest() override {
    fault::FaultInjector::Global().Reset();
    Tracer::Global().Disable();
    Tracer::Global().Clear();
    // Time-ledger conservation under concurrency stress (DESIGN.md §20):
    // scrapers and fault reconfiguration racing the jobs must not cost a
    // nanosecond of attribution or trip a guard off its owner thread.
    const TimeLedgerSnapshot ledger = TimeLedger::Global().TakeSnapshot();
    EXPECT_EQ(ledger.misuse_count, 0);
#ifndef NDEBUG
    EXPECT_EQ(ledger.unattributed_ns, 0);
#else
    EXPECT_LE(ledger.unattributed_ns, 1'000'000);
#endif
  }

  TempDir dir_{"concurrency-stress"};
  DistributedFileSystem dfs_;
  ClusterConfig config_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<PregelixRuntime> runtime_;
};

TEST_F(ConcurrencyStressTest, JobsVsScrapesVsFaultReconfig) {
  GraphStats stats;
  ASSERT_TRUE(
      GenerateBtcLike(dfs_, "input/sssp", 3, 200, 6.0, 42, &stats).ok());
  ASSERT_TRUE(
      GenerateWebmapLike(dfs_, "input/pr", 3, 150, 5.0, 42, &stats).ok());

  InMemoryGraph sssp_graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/sssp", &sssp_graph).ok());
  const std::vector<double> sssp_expected = SsspRef(sssp_graph, 0);

  std::atomic<bool> done{false};
  std::atomic<int> scrape_rounds{0};

  // Scraper 1: metrics exports — registry JSON dump plus the cluster's
  // per-worker publish/snapshot paths (cluster lock vs. job threads).
  std::thread metrics_scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      cluster_->PublishMetrics();
      std::ostringstream json;
      MetricsRegistry::Global().WriteJson(json);
      EXPECT_FALSE(json.str().empty());
      const std::vector<MetricsSnapshot> snaps = cluster_->SnapshotAll();
      EXPECT_EQ(snaps.size(), 2u);
      scrape_rounds.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // Scraper 2: trace flushes — collect/export/clear race the per-thread
  // buffer appends from every operator span in the running jobs.
  std::thread trace_scraper([&] {
    int round = 0;
    while (!done.load(std::memory_order_relaxed)) {
      (void)Tracer::Global().Collect();
      (void)Tracer::Global().event_count();
      std::ostringstream chrome;
      Tracer::Global().WriteChromeTrace(chrome);
      EXPECT_FALSE(chrome.str().empty());
      if (++round % 16 == 0) Tracer::Global().Clear();
      std::this_thread::yield();
    }
  });

  // Scraper 3: fault-injector reconfiguration. The armed spec can never
  // fire (hit number 2^60 of a test-only point), but arming flips
  // any_armed(), so every MaybeFail site in the jobs takes the full
  // locked path — injector lock vs. channel/buffer-cache locks.
  std::thread fault_reconfig([&] {
    fault::FaultSpec spec;
    spec.trigger = fault::Trigger::kNthHit;
    spec.n = uint64_t{1} << 60;
    while (!done.load(std::memory_order_relaxed)) {
      fault::FaultInjector::Global().Arm("stress.never.fires", spec);
      (void)fault::FaultInjector::Global().Stats("io.file.write");
      (void)fault::FaultInjector::Global().scope();
      fault::FaultInjector::Global().Disarm("stress.never.fires");
      std::this_thread::yield();
    }
  });

  // Two full Pregel jobs back to back while the scrapers hammer away; the
  // jobs themselves fan out onto the simulated workers' threads.
  SsspProgram sssp(0);
  SsspProgram::Adapter sssp_adapter(&sssp);
  PregelixJobConfig sssp_job;
  sssp_job.name = "stress-sssp";
  sssp_job.input_dir = "input/sssp";
  sssp_job.output_dir = "output/sssp";
  sssp_job.join = JoinStrategy::kLeftOuter;
  JobResult sssp_result;
  Status s = runtime_->Run(&sssp_adapter, sssp_job, &sssp_result);
  EXPECT_TRUE(s.ok()) << s.ToString();

  PageRankProgram pr(10);
  PageRankProgram::Adapter pr_adapter(&pr);
  PregelixJobConfig pr_job;
  pr_job.name = "stress-pr";
  pr_job.input_dir = "input/pr";
  pr_job.output_dir = "output/pr";
  pr_job.join = JoinStrategy::kFullOuter;
  JobResult pr_result;
  s = runtime_->Run(&pr_adapter, pr_job, &pr_result);
  EXPECT_TRUE(s.ok()) << s.ToString();

  done.store(true, std::memory_order_relaxed);
  metrics_scraper.join();
  trace_scraper.join();
  fault_reconfig.join();

  // The scrapers genuinely overlapped the jobs.
  EXPECT_GT(scrape_rounds.load(), 0);

  // Concurrent observation must not have perturbed the computation: the
  // SSSP result still matches the single-threaded reference exactly.
  auto output = ParseOutput(dfs_, "output/sssp");
  ASSERT_EQ(output.size(), static_cast<size_t>(sssp_graph.num_vertices()));
  for (auto& [vid, value] : output) {
    if (sssp_expected[vid] < 0) {
      EXPECT_EQ(value, "inf");
    } else {
      EXPECT_NEAR(std::stod(value), sssp_expected[vid], 1e-9) << "vid " << vid;
    }
  }
  EXPECT_EQ(pr_result.supersteps, 11);
}

TEST_F(ConcurrencyStressTest, HistogramSnapshotsDuringConcurrentObserves) {
  // Regression stress for the Observe/count ordering: a snapshot that
  // reads count == n must see >= n bucket increments, so the percentile
  // walk can never run past the populated buckets.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("stress.histogram");

  constexpr int kWriters = 3;
  constexpr uint64_t kObservations = 20000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([h, w] {
      for (uint64_t i = 0; i < kObservations; ++i) {
        h->Observe(i << (w % 3));
      }
    });
  }

  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const uint64_t n = h->count();
      const uint64_t p50 = h->Percentile(50);
      const uint64_t p100 = h->Percentile(100);
      if (n > 0) {
        EXPECT_LE(p50, p100);
        // Bucketed upper-bound estimate: never past the largest observable
        // value's bucket ((kObservations - 1) << 2 < 2^20).
        EXPECT_LT(p100, uint64_t{1} << 21);
      }
      std::ostringstream json;
      registry.WriteJson(json);
      std::this_thread::yield();
    }
  });

  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(h->count(), kWriters * kObservations);
  EXPECT_EQ(h->max(), (kObservations - 1) << 2);
}

}  // namespace
}  // namespace pregelix
