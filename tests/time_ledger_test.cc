// Worker time ledger (DESIGN.md §20): conservation on attach/detach, nested
// scope suspend/resume, reattribution of measured waits, contended-lock
// accounting, guard-misuse counting, and end-to-end surface consistency —
// after a full PageRank run, /profilez (JSON and collapsed), the Prometheus
// exposition, and TakeSnapshot must all report the same totals, with zero
// unattributed nanoseconds, and EXPLAIN and the trace must report the
// ledger's per-operator nanoseconds exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "dataflow/cluster.h"
#include "dataflow/plan_profile.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "pregel/runtime.h"
#include "server/http.h"
#include "server/job_registry.h"
#include "server/server.h"

namespace pregelix {
namespace {

/// Burns wall time on the steady clock the ledger reads, so every test
/// interval is bounded below deterministically (sleep_for could oversleep,
/// never undersleep — but a spin keeps the thread attached-and-running the
/// way engine threads are).
void SpinFor(uint64_t ns) {
  const uint64_t until = TimeLedger::NowNs() + ns;
  while (TimeLedger::NowNs() < until) {
  }
}

TEST(TimeLedgerTest, AttachDetachConservesExactly) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute,
                                              "unit-op"));
  EXPECT_TRUE(TimeLedger::CurrentThreadAttached());
  // Double attach refuses and stays inert.
  EXPECT_FALSE(
      TimeLedger::AttachCurrentThread(1, TimeCategory::kIdle, "dup"));
  SpinFor(1'000'000);
  TimeLedger::DetachCurrentThread();
  EXPECT_FALSE(TimeLedger::CurrentThreadAttached());

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_GE(snap.elapsed_ns, 1'000'000);
  // Conservation: every attached nanosecond is in exactly one bucket.
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  // All of it landed in the base category of the one attached thread.
  EXPECT_EQ(snap.ns(TimeCategory::kCompute), snap.elapsed_ns);
  ASSERT_EQ(snap.cells.size(), 1u);
  EXPECT_EQ(snap.cells[0].worker, 0);
  EXPECT_EQ(snap.cells[0].label, "unit-op");
}

TEST(TimeLedgerTest, NestedScopesSuspendParentWithoutDoubleCounting) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "nested"));
  SpinFor(500'000);  // compute
  {
    ScopedTimeCategory sort(TimeCategory::kSort);
    SpinFor(2'000'000);
    {
      ScopedTimeCategory merge(TimeCategory::kMerge);
      SpinFor(2'000'000);
    }
    SpinFor(1'000'000);  // back in sort after the nested scope pops
  }
  SpinFor(500'000);  // back in compute
  TimeLedger::DetachCurrentThread();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  // Each category holds at least its own spins — and strictly less than the
  // whole, which it would swallow if nesting failed to suspend the parent.
  EXPECT_GE(snap.ns(TimeCategory::kSort), 3'000'000);
  EXPECT_GE(snap.ns(TimeCategory::kMerge), 2'000'000);
  EXPECT_GE(snap.ns(TimeCategory::kCompute), 1'000'000);
  EXPECT_LT(snap.ns(TimeCategory::kSort), snap.elapsed_ns);
  EXPECT_LT(snap.ns(TimeCategory::kMerge),
            snap.elapsed_ns - snap.ns(TimeCategory::kSort));
}

TEST(TimeLedgerTest, ReattributeMovesExactNanoseconds) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "reattr"));
  SpinFor(2'000'000);
  TimeLedger::Reattribute(TimeCategory::kIoWait, 1'000'000);
  // Reattributing into the current category is a no-op by contract.
  {
    ScopedTimeCategory io_wait(TimeCategory::kIoWait);
    TimeLedger::Reattribute(TimeCategory::kIoWait, 123'456'789);
  }
  TimeLedger::DetachCurrentThread();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  // The move is exact: the io_wait bucket carries precisely the measured
  // wait (plus whatever the brief io_wait scope itself accrued, < the spin).
  EXPECT_GE(snap.ns(TimeCategory::kIoWait), 1'000'000);
  EXPECT_LT(snap.ns(TimeCategory::kIoWait), 2'000'000);
  // Conservation survives the move — it shifts, never creates, time.
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
}

TEST(TimeLedgerTest, CrossThreadGuardDestructionIsCountedNotCorrupting) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();

  std::unique_ptr<ScopedTimeCategory> stray;
  std::atomic<bool> guard_made{false};
  std::atomic<bool> may_detach{false};
  std::thread t([&]() {
    ASSERT_TRUE(
        TimeLedger::AttachCurrentThread(7, TimeCategory::kCompute, "owner"));
    stray = std::make_unique<ScopedTimeCategory>(TimeCategory::kSort);
    guard_made.store(true);
    while (!may_detach.load()) {
    }
    // Detaching with the guard still open is the second misuse: the stack
    // entry is counted and the bracketed time stays in its category.
    TimeLedger::DetachCurrentThread();
  });
  while (!guard_made.load()) {
  }
  // First misuse: destroyed on this (unattached) thread — the guard must
  // skip accounting instead of touching the owner's stack.
  stray.reset();
  may_detach.store(true);
  t.join();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.misuse_count, 2);
  // Misuse never costs nanoseconds: conservation still holds exactly.
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
}

TEST(TimeLedgerTest, GuardsAreInertOnUnattachedThreads) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_FALSE(TimeLedger::CurrentThreadAttached());
  {
    ScopedTimeCategory sort(TimeCategory::kSort);
    ScopedTimeCategory merge(TimeCategory::kMerge);
  }
  TimeLedger::Reattribute(TimeCategory::kIoWait, 1'000'000);
  TimeLedger::ChargeLockWait("inert_lock", 1'000'000);
  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_EQ(snap.attributed_ns(), 0);
  EXPECT_TRUE(snap.locks.empty());
}

TEST(TimeLedgerTest, ContendedMutexChargesLockWaitTable) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();

  Mutex contended("ledger_test_lock", LockRank::kChannel);
  std::atomic<bool> held{false};
  std::thread holder([&]() {
    MutexLock lock(&contended);
    held.store(true);
    SpinFor(5'000'000);
  });
  while (!held.load()) {
  }

  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "waiter"));
  {
    // Blocks until the holder releases: a contended acquisition, so
    // pregelix::Mutex charges the blocked interval to the ledger.
    MutexLock lock(&contended);
  }
  TimeLedger::DetachCurrentThread();
  holder.join();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  EXPECT_GT(snap.ns(TimeCategory::kLockWait), 0);
  bool found = false;
  for (const TimeLedgerSnapshot::LockWait& l : snap.locks) {
    if (l.name != "ledger_test_lock") continue;
    found = true;
    EXPECT_GE(l.count, 1);
    EXPECT_GT(l.ns, 0);
    // The per-lock table and the category bucket measure the same blocked
    // intervals (other engine locks may add to the bucket, never subtract).
    EXPECT_LE(l.ns, snap.ns(TimeCategory::kLockWait));
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// End-to-end surface consistency

int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// One PageRank run; with `profiled`, EXPLAIN profiling and a tracer are
/// on too, and the profile and the trace must read the ledger's
/// nanoseconds.
void CheckFullRunSurfaces(bool profiled) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  server::JobStatusRegistry::Global().Reset();
  const uint64_t journal_start = EventJournal::Global().last_seq();

  TempDir dir("ledger-e2e");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  Tracer tracer;
  if (profiled) tracer.Enable();
  std::shared_ptr<const PlanProfile> profile;
  {
    ClusterConfig config;
    config.num_workers = 2;
    config.partitions_per_worker = 2;
    config.worker_ram_bytes = 8u << 20;
    config.frame_size = 8 * 1024;
    config.temp_root = dir.Sub("cluster");
    config.tracer = &tracer;
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs);
    GraphStats stats;
    ASSERT_TRUE(
        GenerateWebmapLike(dfs, "input/g", 3, 600, 6.0, 42, &stats).ok());

    PageRankProgram program(6);
    PageRankProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "ledger-e2e";
    job.job_id = "ledger-e2e";
    job.input_dir = "input/g";
    job.profile_plan = profiled;
    JobResult result;
    ASSERT_TRUE(runtime.Run(&adapter, job, &result).ok());
    ASSERT_GE(result.supersteps, 6);
    profile = result.plan_profile;
  }
  // Cluster destroyed: every engine thread has detached, so the ledger is
  // static and all surfaces below must agree exactly.

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  // Conservation on a full job, across every instrumented thread.
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  EXPECT_GT(snap.ns(TimeCategory::kCompute), 0);
  EXPECT_GT(snap.ns(TimeCategory::kBarrierWait), 0);

  // One timer per operator activation: for every superstep operator, the
  // cumulative EXPLAIN wall, the ledger's cells under its label and the
  // `<category>_ns` args of its trace events are the same nanoseconds.
  if (profiled) {
    ASSERT_NE(profile, nullptr);
    std::map<std::string, int64_t> ledger_ns;
    for (const TimeLedgerSnapshot::Cell& cell : snap.cells) {
      for (int64_t ns : cell.ns) ledger_ns[cell.label] += ns;
    }
    std::map<std::string, int64_t> trace_ns;
    for (const TraceEvent& e : tracer.Collect()) {
      if (std::strcmp(e.category, trace_cat::kOperator) != 0) continue;
      for (const auto& [key, value] : e.args) {
        if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0) {
          trace_ns[e.name] += value;
        }
      }
    }
    ASSERT_FALSE(profile->ops().empty());
    for (const PlanOperatorProfile& op : profile->ops()) {
      SCOPED_TRACE(op.name);
      const int64_t wall = static_cast<int64_t>(op.total.wall_ns);
      EXPECT_GT(wall, 0);
      EXPECT_EQ(wall, ledger_ns[op.name]);
      EXPECT_EQ(wall, trace_ns[op.name]);
    }
  }

  // /profilez JSON: byte-for-byte what WriteJson produces, with the same
  // totals the snapshot reports.
  server::ObservabilityServer srv(server::ServerOptions{}, nullptr, nullptr,
                                  nullptr);
  server::HttpRequest req;
  req.method = "GET";
  req.path = "/profilez";
  const server::HttpResponse json_resp = srv.Dispatch(req);
  EXPECT_EQ(json_resp.code, 200);
  EXPECT_EQ(json_resp.content_type, "application/json");
  std::ostringstream json_os;
  ledger.WriteJson(json_os);
  EXPECT_EQ(json_resp.body, json_os.str());
  EXPECT_EQ(JsonInt(json_resp.body, "elapsed_ns"), snap.elapsed_ns);
  EXPECT_EQ(JsonInt(json_resp.body, "attributed_ns"), snap.attributed_ns());
  EXPECT_EQ(JsonInt(json_resp.body, "unattributed_ns"), 0);

  // /profilez?format=collapsed: one `worker;operator;category ns` line per
  // positive cell entry; the integer sum reproduces the snapshot exactly.
  req.query = "format=collapsed";
  const server::HttpResponse collapsed_resp = srv.Dispatch(req);
  EXPECT_EQ(collapsed_resp.code, 200);
  int64_t collapsed_sum = 0;
  int64_t positive_cell_sum = 0;
  {
    std::istringstream in(collapsed_resp.body);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      collapsed_sum += std::strtoll(line.c_str() + space + 1, nullptr, 10);
    }
    for (const TimeLedgerSnapshot::Cell& cell : snap.cells) {
      for (int64_t ns : cell.ns) {
        if (ns > 0) positive_cell_sum += ns;
      }
    }
  }
  EXPECT_EQ(collapsed_sum, positive_cell_sum);
  req.query.clear();

  // A bad format is rejected, not served as something else.
  req.query = "format=xml";
  EXPECT_EQ(srv.Dispatch(req).code, 400);
  req.query.clear();

  // Prometheus: pregelix_time_seconds_total series sum back to the
  // attributed total (each value is ns-exact decimal seconds).
  std::ostringstream prom;
  ledger.WritePrometheus(prom);
  const std::string exposition = prom.str();
  double prom_seconds = 0;
  {
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("pregelix_time_seconds_total{", 0) != 0) continue;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      prom_seconds += std::strtod(line.c_str() + space + 1, nullptr);
    }
  }
  EXPECT_NEAR(prom_seconds * 1e9, static_cast<double>(snap.attributed_ns()),
              1e4);

  // /metrics carries the ledger families and its conservation gauges.
  req.path = "/metrics";
  const server::HttpResponse metrics_resp = srv.Dispatch(req);
  EXPECT_EQ(metrics_resp.code, 200);
  EXPECT_NE(metrics_resp.body.find("pregelix_time_seconds_total"),
            std::string::npos);
  EXPECT_NE(metrics_resp.body.find("pregelix_ledger_unattributed_ns"),
            std::string::npos);

  // Per-superstep ledger deltas reached the job registry and /jobs/<id>.
  server::JobStatus status;
  ASSERT_TRUE(server::JobStatusRegistry::Global().Get("ledger-e2e", &status));
  ASSERT_FALSE(status.recent.empty());
  int briefs_with_ledger = 0;
  for (const server::SuperstepBrief& b : status.recent) {
    int64_t sum = 0;
    for (int64_t ns : b.ledger_ns) sum += ns;
    if (sum > 0) ++briefs_with_ledger;
  }
  EXPECT_GT(briefs_with_ledger, 0);
  std::ostringstream job_os;
  ASSERT_TRUE(
      server::JobStatusRegistry::Global().WriteJobJson("ledger-e2e", job_os));
  EXPECT_NE(job_os.str().find("\"ledger_ns\":{"), std::string::npos);

  // ... and the superstep.end journal events carry the same rollup.
  std::ostringstream events;
  EventJournal::Global().WriteJsonl(events, journal_start, 0);
  EXPECT_NE(events.str().find("ledger_ns"), std::string::npos);
}

TEST(TimeLedgerE2eTest, FullRunConservesAndAllSurfacesAgree) {
  for (const bool profiled : {false, true}) {
    SCOPED_TRACE(profiled ? "profiled and traced" : "plain");
    CheckFullRunSurfaces(profiled);
  }
}

}  // namespace
}  // namespace pregelix
