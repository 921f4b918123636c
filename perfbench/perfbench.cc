// perfbench: the end-to-end benchmark of the Pregelix engine.
//
// One client runs Pregelix jobs in a closed loop -- the next job starts when
// the previous one has returned -- on a standing SimulatedCluster of four
// workers. Each job is load -> supersteps -> dump. Every job's dump is
// compared with the single-threaded graph/ref_algos answer on the same
// graph, outside the timed region. The graph is generated from --seed; the
// engine sees only the generated part files.
//
//   perfbench --workload=pagerank-mem --seed=1 --seconds=15 --trace=0
//             --out=DIR
//
// --trace=0 prints the end-to-end metrics: medians over untraced jobs, the
// set-up time and the process's peak RSS.
// --trace=1 alternates untraced jobs with the same jobs run with the plan
// profile and the engine Tracer switched on, and prints the per-layer
// metrics. They are measured from outside the engine: deltas of its public
// counters and of the time ledger around each traced job, and timed direct
// calls into the layers' public functions on the workload's own graph.
//
// Timings are taken from the jobs that ran while the host's other tenants
// stole little CPU time (see kQuietStealPct); the host noise of every job
// is recorded, so a noisy neighbour can be told from a regression.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Spans and per-job records are kept in
// memory and written to DIR when the run ends.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "buffer/buffer_cache.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/serde.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "dataflow/cluster.h"
#include "dataflow/ops/sort.h"
#include "dataflow/plan_profile.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"
#include "pregel/serde.h"
#include "storage/btree.h"

namespace pregelix {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 4;
constexpr int64_t kVertices = 100000;
constexpr int kPageRankIterations = 10;
constexpr int64_t kSsspSource = 0;
// The `pregelix generate` default degrees: ~798k webmap and ~894k BTC edges.
constexpr double kWebmapDegree = 8.0;
constexpr double kBtcDegree = 8.94;
// Set-up is repeated and its median reported, so that work moved into
// set-up shows as a change of setup_s and not as noise.
constexpr size_t kSetupRepeats = 3;
// superstep_ms_p90 needs ten samples beyond it.
constexpr size_t kMinTimedSupersteps = 100;
// A job during which other tenants took more than this share of the host's
// CPU time (steal, from /proc/stat) timed the neighbours more than the
// engine: it still counts as attempted and its output is checked, but its
// timings stay out of the medians...
constexpr double kQuietStealPct = 2.0;
// ...unless its phase has fewer quiet jobs than this; then the medians take
// this many of the phase's least-stolen jobs.
constexpr size_t kMinQuietJobs = 3;
// The timed loop runs past --seconds by at most this much while it lacks
// quiet jobs or supersteps, so that a run ends within its time limit.
constexpr double kMaxExtraSeconds = 20.0;
constexpr int kProbeRepeats = 7;
constexpr int kProbeGets = 20000;
// differential_sweep_test's tolerance.
constexpr double kTolerance = 1e-9;

enum class Algo { kPageRank, kSssp };

struct Workload {
  const char* name;
  Algo algo;
  size_t worker_ram_mb;
  bool auto_plan;  ///< --join/--groupby/--connector=auto; else the default plan
};

// pagerank-mem: every vertex live and every edge carrying a message each
//   superstep, so the per-tuple layers do most of the work; the Vertex
//   index fits the buffer cache.
// sssp-auto: ~47 supersteps with a small frontier, so the fixed
//   per-superstep cost and Vertex-index point probes dominate; the only
//   workload that runs the plan optimizer.
// pagerank-ooc: pagerank-mem at a quarter of the RAM, so the Vertex index
//   no longer fits the cache; the pair isolates the out-of-core cost.
constexpr Workload kWorkloads[] = {
    {"pagerank-mem", Algo::kPageRank, 16, false},
    {"sssp-auto", Algo::kSssp, 16, true},
    {"pagerank-ooc", Algo::kPageRank, 4, false},
};

// ---------------------------------------------------------------------------
// Small helpers

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Shortest round-trip decimal form: every digit as measured.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// CPU steal and idle shares of the host over an interval, from /proc/stat.
struct HostCpu {
  uint64_t total = 0, idle = 0, steal = 0;
  bool ok = false;

  static HostCpu Read() {
    HostCpu h;
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t f[8] = {};  // user nice system idle iowait irq softirq steal
    if (in >> cpu && cpu == "cpu") {
      for (uint64_t& x : f) in >> x;
      h.ok = static_cast<bool>(in);
    }
    for (uint64_t x : f) h.total += x;
    h.idle = f[3] + f[4];
    h.steal = f[7];
    return h;
  }
};

struct HostNoise {
  double steal_pct = 0, idle_pct = 0;
  bool ok = false;
};

HostNoise NoiseBetween(const HostCpu& a, const HostCpu& b) {
  HostNoise n;
  n.ok = a.ok && b.ok && b.total > a.total;
  if (n.ok) {
    const double total = static_cast<double>(b.total - a.total);
    n.steal_pct = 100.0 * static_cast<double>(b.steal - a.steal) / total;
    n.idle_pct = 100.0 * static_cast<double>(b.idle - a.idle) / total;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans, kept in memory and written when the run ends.

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t job = -1;  ///< benchmark job number; -1 for set-up spans
    int parent = -1;
    double start_us = 0, end_us = 0;
  };

  int Begin(std::string name, int64_t job = -1, int parent = -1) {
    spans_.push_back({std::move(name), job, parent, NowUs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_us = NowUs(); }

  void WriteJson(std::ostream& os) const {
    os << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i
         << ",\"name\":" << JsonString(s.name) << ",\"job\":" << s.job
         << ",\"parent\":" << s.parent << ",\"start_us\":" << Num(s.start_us)
         << ",\"end_us\":" << Num(s.end_us) << "}";
    }
    os << "]";
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Set-up: graph, reference answer, standing cluster, warm-up job.

template <typename Program, typename... Args>
std::shared_ptr<PregelProgram> OwnAdapter(Args&&... args) {
  auto program = std::make_shared<Program>(std::forward<Args>(args)...);
  auto* adapter = new typename Program::Adapter(program.get());
  return std::shared_ptr<PregelProgram>(
      adapter, [program](PregelProgram* p) { delete p; });
}

std::shared_ptr<PregelProgram> MakeProgram(const Workload& w) {
  return w.algo == Algo::kPageRank
             ? OwnAdapter<PageRankProgram>(kPageRankIterations)
             : OwnAdapter<SsspProgram>(kSsspSource);
}

ClusterConfig MakeClusterConfig(const Workload& w, const std::string& dir,
                                Tracer* tracer, MetricsRegistry* registry) {
  ClusterConfig config;  // defaults, as `pregelix run` uses them
  config.num_workers = kWorkers;
  config.worker_ram_bytes = w.worker_ram_mb << 20;
  config.temp_root = dir;
  config.tracer = tracer;
  config.metrics_registry = registry;
  return config;
}

PregelixJobConfig MakeJobConfig(const Workload& w, int64_t job) {
  PregelixJobConfig config;
  config.name = std::string(w.name) + "-" + std::to_string(job);
  config.input_dir = "graph";
  config.output_dir = "out-" + std::to_string(job);
  config.max_supersteps = 1000;
  if (w.auto_plan) {
    config.join = JoinStrategy::kAuto;
    config.groupby = GroupByStrategy::kAuto;
    config.groupby_connector = GroupByConnector::kAuto;
  }
  return config;
}

/// Compares a job's dump with the reference, by differential_sweep_test's
/// rule. Returns the number of vertices that are missing, duplicated or off
/// by more than kTolerance.
int64_t CountMismatches(const DistributedFileSystem& dfs,
                        const std::string& dir, Algo algo,
                        const std::vector<double>& ref) {
  std::vector<std::string> names;
  if (!dfs.List(dir, &names).ok()) return static_cast<int64_t>(ref.size());
  std::vector<char> seen(ref.size(), 0);
  int64_t bad = 0;
  std::string contents;
  for (const std::string& part : names) {
    if (!dfs.Read(dir + "/" + part, &contents).ok()) {
      return static_cast<int64_t>(ref.size());
    }
    const char* p = contents.c_str();
    const char* end = p + contents.size();
    while (p < end) {
      const char* eol = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<size_t>(end - p)));
      if (eol == nullptr) eol = end;
      std::string line(p, eol);
      p = eol + 1;
      if (line.empty()) continue;
      char* rest = nullptr;
      const long long vid = std::strtoll(line.c_str(), &rest, 10);
      while (*rest == ' ' || *rest == '\t') ++rest;
      const std::string value(rest);
      if (vid < 0 || static_cast<size_t>(vid) >= ref.size() || seen[vid]) {
        ++bad;
        continue;
      }
      seen[vid] = 1;
      const double want = ref[static_cast<size_t>(vid)];
      if (algo == Algo::kSssp && want < 0) {
        if (value != "inf") ++bad;
      } else if (value.empty() || value == "inf" ||
                 !(std::fabs(std::strtod(value.c_str(), nullptr) - want) <=
                   kTolerance)) {
        ++bad;
      }
    }
  }
  bad += static_cast<int64_t>(std::count(seen.begin(), seen.end(), 0));
  return bad;
}

struct Engine {
  std::string dir;
  std::unique_ptr<DistributedFileSystem> dfs;
  InMemoryGraph graph;
  std::vector<double> ref;
  std::unique_ptr<SimulatedCluster> cluster;
  std::unique_ptr<PregelixRuntime> runtime;
  double generate_s = 0;
  double setup_s = 0;
};

/// One set-up: generate, load the reference graph, compute the reference
/// answer, start the cluster and run one untimed warm-up job.
Status SetUp(const Workload& w, uint64_t seed, const std::string& dir,
             PregelProgram* program, Tracer* tracer, MetricsRegistry* registry,
             SpanLog* spans, Engine* e) {
  const int root = spans->Begin("setup");
  const Clock::time_point t0 = Clock::now();
  e->dir = dir;
  fs::create_directories(dir);
  e->dfs = std::make_unique<DistributedFileSystem>(dir + "/dfs");

  int span = spans->Begin("generate", -1, root);
  GraphStats stats;
  PREGELIX_RETURN_NOT_OK(
      w.algo == Algo::kPageRank
          ? GenerateWebmapLike(*e->dfs, "graph", kWorkers, kVertices,
                               kWebmapDegree, seed, &stats)
          : GenerateBtcLike(*e->dfs, "graph", kWorkers, kVertices, kBtcDegree,
                            seed, &stats));
  spans->End(span);
  e->generate_s = Seconds(t0, Clock::now());

  span = spans->Begin("ref", -1, root);
  PREGELIX_RETURN_NOT_OK(LoadGraph(*e->dfs, "graph", &e->graph));
  e->ref = w.algo == Algo::kPageRank
               ? PageRankRef(e->graph, kPageRankIterations)
               : SsspRef(e->graph, kSsspSource);
  spans->End(span);

  span = spans->Begin("cluster_start", -1, root);
  e->cluster = std::make_unique<SimulatedCluster>(
      MakeClusterConfig(w, dir + "/cluster", tracer, registry));
  e->runtime = std::make_unique<PregelixRuntime>(e->cluster.get(),
                                                 e->dfs.get());
  spans->End(span);

  span = spans->Begin("warmup_job", -1, root);
  const PregelixJobConfig job = MakeJobConfig(w, -1);
  JobResult result;
  PREGELIX_RETURN_NOT_OK(e->runtime->Run(program, job, &result));
  spans->End(span);
  e->setup_s = Seconds(t0, Clock::now());
  spans->End(root);

  const int64_t bad = CountMismatches(*e->dfs, job.output_dir, w.algo, e->ref);
  PREGELIX_RETURN_NOT_OK(e->dfs->DeleteRecursive(job.output_dir));
  if (bad != 0) {
    return Status::Corruption("warm-up job output differs from ref_algos at " +
                              std::to_string(bad) + " vertices");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Counter readings around one job (traced runs).

struct Reading {
  TimeLedgerSnapshot ledger;
  std::vector<MetricsSnapshot> workers;
  uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;
  uint64_t probes = 0, inserts = 0, verifications = 0;
  uint64_t prefetch_hits = 0, prefetch_wasted = 0, writebehind_stalls = 0;
};

Reading ReadCounters(SimulatedCluster& cluster,
                     const MetricsRegistry& registry) {
  Reading r;
  r.ledger = TimeLedger::Global().TakeSnapshot();
  r.workers = cluster.SnapshotAll();
  for (int w = 0; w < cluster.num_workers(); ++w) {
    const BufferCache& cache = cluster.cache(w);
    r.hits += cache.hit_count();
    r.misses += cache.miss_count();
    r.evictions += cache.eviction_count();
    r.writebacks += cache.writeback_count();
  }
  r.probes = registry.SumCounters("pregelix.storage.probes");
  r.inserts = registry.SumCounters("pregelix.storage.inserts");
  r.verifications = registry.CounterValue("pregelix.verifier.checks");
  if (OverlapRuntime* overlap = cluster.overlap()) {
    r.prefetch_hits = overlap->prefetch().hits();
    r.prefetch_wasted = overlap->prefetch().wasted();
    r.writebehind_stalls = overlap->writebehind().stall_count();
  }
  return r;
}

/// Ledger time of one job, split the way the per-layer table needs it.
struct LedgerDelta {
  std::array<int64_t, kNumTimeCategories> tasks{};   ///< worker >= 0
  std::array<int64_t, kNumTimeCategories> driver{};  ///< the job driver
  std::array<int64_t, kNumTimeCategories> overlap{};  ///< overlap threads
  std::array<int64_t, kNumTimeCategories> all{};
  std::map<std::string, int64_t> locks;  ///< contended wait ns by lock name
  int64_t unattributed_ns = 0;
};

LedgerDelta Diff(const TimeLedgerSnapshot& a, const TimeLedgerSnapshot& b) {
  std::map<std::pair<int, std::string>, std::array<int64_t, kNumTimeCategories>>
      before;
  for (const auto& cell : a.cells) before[{cell.worker, cell.label}] = cell.ns;
  LedgerDelta d;
  for (const auto& cell : b.cells) {
    const auto it = before.find({cell.worker, cell.label});
    for (int c = 0; c < kNumTimeCategories; ++c) {
      const int64_t ns = cell.ns[c] - (it == before.end() ? 0 : it->second[c]);
      d.all[c] += ns;
      if (cell.worker >= 0) {
        d.tasks[c] += ns;
      } else if (cell.worker == TimeLedger::kDriverWorker) {
        d.driver[c] += ns;
      } else if (cell.worker == TimeLedger::kOverlapWorker) {
        d.overlap[c] += ns;
      }
    }
  }
  for (const auto& lock : b.locks) d.locks[lock.name] += lock.ns;
  for (const auto& lock : a.locks) d.locks[lock.name] -= lock.ns;
  d.unattributed_ns = b.unattributed_ns - a.unattributed_ns;
  return d;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double CategoryMs(const std::array<int64_t, kNumTimeCategories>& a,
                  TimeCategory c) {
  return Ms(a[static_cast<int>(c)]);
}

// ---------------------------------------------------------------------------
// Per-layer metric table: name, unit, and whether it is a count that should
// repeat exactly for one seed (reported, never gated).

struct LayerMetric {
  const char* name;
  const char* unit;
  bool count;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"pregel.driver_ms_per_superstep", "ms", false},
    {"pregel.outside_supersteps_ms", "ms", false},
    {"pregel.plan_switches", "count", true},
    {"pregel.supersteps", "count", true},
    {"pregel.sim_s", "s", true},
    {"pregel.ref_gap", "ratio", false},
    {"dataflow.task_threads_per_superstep", "count", true},
    {"dataflow.plan_verifications", "count", true},
    {"dataflow.barrier_wait_ms", "ms", false},
    {"dataflow.compute_ms", "ms", false},
    {"dataflow.sort_ms", "ms", false},
    {"dataflow.merge_ms", "ms", false},
    {"dataflow.group_by_ms", "ms", false},
    {"dataflow.shuffle_wait_ms", "ms", false},
    {"dataflow.messages", "count", true},
    {"dataflow.shuffle_bytes", "bytes", true},
    {"dataflow.combine_ratio", "ratio", true},
    {"dataflow.spill_bytes", "bytes", true},
    {"dataflow.cpu_ops", "count", true},
    {"dataflow.groupby_ns_per_msg", "ns", false},
    {"storage.probes", "count", true},
    {"storage.inserts", "count", true},
    {"storage.scan_ns_per_vertex", "ns", false},
    {"storage.get_ns", "ns", false},
    {"buffer.hit_ratio", "ratio", true},
    {"buffer.misses", "count", true},
    {"buffer.evictions", "count", true},
    {"buffer.writebacks", "count", true},
    {"io.disk_read_bytes", "bytes", true},
    {"io.disk_write_bytes", "bytes", true},
    {"io.read_ms", "ms", false},
    {"io.write_ms", "ms", false},
    {"io.wait_ms", "ms", false},
    {"io.prefetch_useful_ratio", "ratio", true},
    {"io.writebehind_stalls", "count", true},
    {"io.overlap_idle_ms", "ms", false},
    {"io.overlap_bytes", "bytes", true},
    {"common.lock_wait_ms", "ms", false},
    {"common.lock_wait_ms.overlap_prefetch", "ms", false},
    {"common.lock_wait_ms.overlap_writebehind", "ms", false},
    {"common.lock_wait_ms.channel", "ms", false},
    {"graph.ref_ms", "ms", false},
    {"graph.generate_s", "s", false},
    {"host.steal_pct", "%", false},
    {"host.idle_pct", "%", false},
    {"bench.trace_wall_overhead_pct", "%", false},
    {"bench.trace_cpu_overhead_pct", "%", false},
};

using Values = std::map<std::string, double>;

/// The per-job per-layer values of one traced job.
Values JobLayerValues(const JobResult& r, double wall_s, const Reading& a,
                      const Reading& b) {
  Values v;
  const double steps = static_cast<double>(std::max<int64_t>(r.supersteps, 1));
  const LedgerDelta led = Diff(a.ledger, b.ledger);

  double step_wall_s = 0;
  int64_t messages = 0;
  uint64_t shuffle_bytes = 0;
  for (const SuperstepStats& s : r.superstep_stats) {
    step_wall_s += s.wall_seconds;
    messages += s.messages;
    shuffle_bytes += s.bytes_shuffled;
  }
  int64_t switches = 0;
  for (const PlanDecisionRecord& d : r.plan_decisions) {
    if (!d.switched.empty()) ++switches;
  }
  // combine-msgs is a sink (its tuples_out stays 0), so its reduction is
  // the tuples it receives over the combined messages it leaves behind.
  uint64_t activations = 0, combine_in = 0, spill_bytes = 0;
  if (r.plan_profile != nullptr) {
    for (const PlanOperatorProfile& op : r.plan_profile->ops()) {
      activations += op.total.activations;
      if (op.name == "combine-msgs") combine_in += op.total.tuples_in;
    }
    spill_bytes = r.plan_profile->TotalSpillBytes();
  }
  MetricsSnapshot work;
  for (size_t w = 0; w < b.workers.size(); ++w) {
    work += b.workers[w] - a.workers[w];
  }

  const int64_t driver_total = [&] {
    int64_t t = 0;
    for (int64_t ns : led.driver) t += ns;
    return t;
  }();
  const int64_t driver_waits =
      led.driver[static_cast<int>(TimeCategory::kBarrierWait)] +
      led.driver[static_cast<int>(TimeCategory::kIdle)];
  v["pregel.driver_ms_per_superstep"] = Ms(driver_total - driver_waits) / steps;
  v["pregel.outside_supersteps_ms"] = (wall_s - step_wall_s) * 1e3;
  v["pregel.plan_switches"] = static_cast<double>(switches);
  v["pregel.supersteps"] = static_cast<double>(r.supersteps);
  v["pregel.sim_s"] = r.total_sim_seconds;
  v["pregel.step_wall_ms"] = step_wall_s * 1e3;  // for pregel.ref_gap
  v["dataflow.task_threads_per_superstep"] =
      static_cast<double>(activations) / steps;
  v["dataflow.plan_verifications"] =
      static_cast<double>(b.verifications - a.verifications);
  v["dataflow.barrier_wait_ms"] =
      CategoryMs(led.all, TimeCategory::kBarrierWait);
  v["dataflow.compute_ms"] = CategoryMs(led.tasks, TimeCategory::kCompute);
  v["dataflow.sort_ms"] = CategoryMs(led.tasks, TimeCategory::kSort);
  v["dataflow.merge_ms"] = CategoryMs(led.tasks, TimeCategory::kMerge);
  v["dataflow.group_by_ms"] = CategoryMs(led.tasks, TimeCategory::kGroupBy);
  v["dataflow.shuffle_wait_ms"] =
      CategoryMs(led.tasks, TimeCategory::kShuffleWait);
  v["dataflow.messages"] = static_cast<double>(messages);
  v["dataflow.shuffle_bytes"] = static_cast<double>(shuffle_bytes);
  v["dataflow.combine_ratio"] = Ratio(static_cast<double>(combine_in),
                                      static_cast<double>(messages));
  v["dataflow.spill_bytes"] = static_cast<double>(spill_bytes);
  v["dataflow.cpu_ops"] = static_cast<double>(work.cpu_ops);
  v["storage.probes"] = static_cast<double>(b.probes - a.probes);
  v["storage.inserts"] = static_cast<double>(b.inserts - a.inserts);
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  v["buffer.hit_ratio"] = Ratio(hits, hits + misses);
  v["buffer.misses"] = misses;
  v["buffer.evictions"] = static_cast<double>(b.evictions - a.evictions);
  v["buffer.writebacks"] = static_cast<double>(b.writebacks - a.writebacks);
  v["io.disk_read_bytes"] = static_cast<double>(work.disk_read_bytes);
  v["io.disk_write_bytes"] = static_cast<double>(work.disk_write_bytes);
  v["io.read_ms"] = CategoryMs(led.all, TimeCategory::kIoRead);
  v["io.write_ms"] = CategoryMs(led.all, TimeCategory::kIoWrite);
  v["io.wait_ms"] = CategoryMs(led.all, TimeCategory::kIoWait);
  const double useful =
      static_cast<double>(b.prefetch_hits - a.prefetch_hits);
  const double wasted =
      static_cast<double>(b.prefetch_wasted - a.prefetch_wasted);
  v["io.prefetch_useful_ratio"] = Ratio(useful, useful + wasted);
  v["io.writebehind_stalls"] =
      static_cast<double>(b.writebehind_stalls - a.writebehind_stalls);
  v["io.overlap_idle_ms"] = CategoryMs(led.overlap, TimeCategory::kIdle);
  v["io.overlap_bytes"] = static_cast<double>(work.overlap_io_bytes);
  v["common.lock_wait_ms"] = CategoryMs(led.all, TimeCategory::kLockWait);
  for (const char* lock :
       {"overlap_prefetch", "overlap_writebehind", "channel", "buffer_cache"}) {
    const auto it = led.locks.find(lock);
    v[std::string("common.lock_wait_ms.") + lock] =
        it == led.locks.end() ? 0.0 : Ms(it->second);
  }
  v["common.ledger_unattributed_ns"] =
      static_cast<double>(led.unattributed_ns);
  return v;
}

// ---------------------------------------------------------------------------
// Layer probes: direct, timed calls into the layers' public functions on the
// workload's own graph, with the workload's per-worker budgets.

/// The vertices of one of the kWorkers partitions, in key order, as the
/// generator hashes them into part files.
std::vector<int64_t> PartitionZero(const InMemoryGraph& g) {
  std::vector<int64_t> vids;
  for (int64_t vid = 0; vid < g.num_vertices(); ++vid) {
    if (HashVid(vid) % kWorkers == 0) vids.push_back(vid);
  }
  return vids;
}

/// Bulk-loads one partition's Vertex records into a B-tree behind a buffer
/// cache of the workload's per-worker page budget, then times full scans
/// and random point lookups.
Status ProbeStorage(const ClusterConfig& cluster_config,
                    const InMemoryGraph& g, PregelProgram* program,
                    const std::string& dir, uint64_t seed, double* scan_ns,
                    double* get_ns) {
  const ClusterConfig c = cluster_config.Derive();
  WorkerMetrics metrics;
  BufferCache cache(c.page_size, c.buffer_cache_pages, &metrics);
  std::unique_ptr<BTree> tree;
  PREGELIX_RETURN_NOT_OK(BTree::Open(&cache, dir + "/probe-vertex.btree",
                                     &tree));
  const std::vector<int64_t> vids = PartitionZero(g);
  {
    std::unique_ptr<IndexBulkLoader> loader = tree->NewBulkLoader();
    std::string record;
    for (int64_t vid : vids) {
      PREGELIX_RETURN_NOT_OK(program->InitialVertex(
          vid, g.adj[static_cast<size_t>(vid)], &record));
      PREGELIX_RETURN_NOT_OK(
          loader->Add(Slice(OrderedKeyI64(vid)), Slice(record)));
    }
    PREGELIX_RETURN_NOT_OK(loader->Finish());
  }

  std::vector<double> scans, gets;
  std::mt19937_64 rng(seed);
  std::vector<std::string> keys(kProbeGets);
  std::string value;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<IndexIterator> it = tree->NewIterator();
    uint64_t n = 0, bytes = 0;
    PREGELIX_RETURN_NOT_OK(it->SeekToFirst());
    while (it->Valid()) {
      ++n;
      bytes += it->value().size();
      PREGELIX_RETURN_NOT_OK(it->Next());
    }
    scans.push_back(Seconds(t0, Clock::now()) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(n, 1)));
    if (n != vids.size() || bytes == 0) {
      return Status::Corruption("probe scan saw " + std::to_string(n) +
                                " of " + std::to_string(vids.size()));
    }

    for (std::string& key : keys) {
      key = OrderedKeyI64(vids[rng() % vids.size()]);
    }
    t0 = Clock::now();
    for (const std::string& key : keys) {
      PREGELIX_RETURN_NOT_OK(tree->Get(Slice(key), &value));
    }
    gets.push_back(Seconds(t0, Clock::now()) * 1e9 / kProbeGets);
  }
  *scan_ns = Median(scans);
  *get_ns = Median(gets);
  tree.reset();
  std::error_code ec;
  fs::remove(dir + "/probe-vertex.btree", ec);
  return Status::OK();
}

/// Feeds an ExternalSortGrouper one superstep's messages sent by one
/// partition, with the program's combiner and the workload's group-by
/// budget. PageRank: superstep 1, every out-edge. SSSP: the superstep with
/// the largest frontier (the reference distances give it).
Status ProbeGroupBy(const ClusterConfig& cluster_config, Algo algo,
                    const InMemoryGraph& g, const std::vector<double>& ref,
                    PregelProgram* program, OverlapRuntime* overlap,
                    const std::string& dir, double* ns_per_msg) {
  const std::vector<int64_t> senders = PartitionZero(g);
  int64_t level = 0;
  if (algo == Algo::kSssp) {
    std::map<int64_t, int64_t> frontier;  // distance -> vertices at it
    for (int64_t vid : senders) {
      const double d = ref[static_cast<size_t>(vid)];
      if (d >= 0) ++frontier[static_cast<int64_t>(d)];
    }
    int64_t best = -1;
    for (const auto& [d, n] : frontier) {
      if (n > best) {
        best = n;
        level = d;
      }
    }
  }
  std::vector<std::string> keys, payloads;
  const double n = static_cast<double>(g.num_vertices());
  for (int64_t vid : senders) {
    const auto& adj = g.adj[static_cast<size_t>(vid)];
    if (adj.empty()) continue;
    double msg;
    if (algo == Algo::kPageRank) {
      msg = 1.0 / n / static_cast<double>(adj.size());
    } else {
      if (ref[static_cast<size_t>(vid)] != static_cast<double>(level)) continue;
      msg = static_cast<double>(level + 1);
    }
    for (int64_t dst : adj) {
      keys.push_back(OrderedKeyI64(dst));
      payloads.push_back(SerializeValue(msg));
    }
  }
  if (keys.empty()) return Status::Internal("group-by probe has no messages");

  const ClusterConfig c = cluster_config.Derive();
  std::vector<double> samples;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    WorkerMetrics metrics;
    SortConfig config;
    config.field_count = 2;
    config.key_field = 0;
    config.memory_budget_bytes = c.groupby_memory_bytes;
    config.frame_size = c.frame_size;
    config.scratch_prefix = dir + "/probe-groupby-" + std::to_string(rep);
    config.metrics = &metrics;
    config.overlap = overlap;
    uint64_t groups = 0;
    const Clock::time_point t0 = Clock::now();
    {
      ExternalSortGrouper grouper(config, program->MsgCombiner());
      for (size_t i = 0; i < keys.size(); ++i) {
        const Slice fields[2] = {Slice(keys[i]), Slice(payloads[i])};
        PREGELIX_RETURN_NOT_OK(grouper.Add(fields));
      }
      PREGELIX_RETURN_NOT_OK(grouper.Finish([&](std::span<const Slice>) {
        ++groups;
        return Status::OK();
      }));
    }
    samples.push_back(Seconds(t0, Clock::now()) * 1e9 /
                      static_cast<double>(keys.size()));
    if (groups == 0 || groups > keys.size()) {
      return Status::Internal("group-by probe emitted " +
                              std::to_string(groups) + " groups");
    }
  }
  *ns_per_msg = Median(samples);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && !args->out.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

struct JobSample {
  int64_t job = 0;
  bool traced = false;
  bool ok = false;
  double wall_s = 0, cpu_s = 0;
  HostNoise noise;  ///< host steal/idle while the job ran
  std::vector<double> step_ms;
  Values layers;  ///< traced jobs only

  double steal() const { return noise.ok ? noise.steal_pct : 0.0; }
  bool quiet() const { return steal() <= kQuietStealPct; }
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args) : w_(w), args_(args) {}

  int Main() {
    program_ = MakeProgram(w_);
    scratch_ = args_.out + "/scratch-" + std::to_string(getpid());
    const Status s = Run();
    engine_.reset();
    std::error_code ec;
    fs::remove_all(scratch_, ec);
    if (!s.ok()) {
      fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }

 private:
  Status Run() {
    // The first set-up is the standing cluster the timed jobs run on.
    PREGELIX_RETURN_NOT_OK(SetUpEngine());
    printf("workload %s seed %llu: %lld vertices, %llu edges, %d workers, "
           "%zu MB/worker\n",
           w_.name, static_cast<unsigned long long>(args_.seed),
           static_cast<long long>(engine_->graph.num_vertices()),
           static_cast<unsigned long long>(engine_->graph.num_edges()),
           kWorkers, w_.worker_ram_mb);
    const HostCpu h0 = HostCpu::Read();
    RunLoop();
    noise_ = NoiseBetween(h0, HostCpu::Read());
    if (args_.trace == 1) PREGELIX_RETURN_NOT_OK(RunProbes());
    // Read before the repeated set-ups below, whose torn-down engines leave
    // allocator memory behind that a process running one cluster never has.
    peak_rss_mb_ = PeakRssMb();
    while (setup_s_.size() < kSetupRepeats) {
      PREGELIX_RETURN_NOT_OK(SetUpEngine());
    }
    if (args_.trace == 0) {
      PrintEndToEnd();
    } else {
      PrintPerLayer();
    }
    return WriteRecords();
  }

  /// Replaces the engine with a freshly set-up one and records the set-up.
  Status SetUpEngine() {
    if (engine_ != nullptr) {
      const std::string old_dir = engine_->dir;
      engine_.reset();
      std::error_code ec;
      fs::remove_all(old_dir, ec);
    }
    engine_ = std::make_unique<Engine>();
    const std::string dir =
        scratch_ + "/setup-" + std::to_string(setup_s_.size());
    PREGELIX_RETURN_NOT_OK(SetUp(w_, args_.seed, dir, program_.get(), &tracer_,
                                 &registry_, &spans_, engine_.get()));
    setup_s_.push_back(engine_->setup_s);
    generate_s_.push_back(engine_->generate_s);
    return Status::OK();
  }

  /// Closed loop: jobs back to back until --seconds have passed and enough
  /// jobs (and supersteps) ran on a quiet host. A traced run alternates
  /// untraced and traced jobs, so that drift and host noise fall on both
  /// sides of the tracing-overhead comparison alike.
  void RunLoop() {
    const bool alternate = args_.trace == 1;
    const Clock::time_point start = Clock::now();
    size_t steps = 0;
    size_t quiet[2] = {0, 0};  // untraced, traced
    for (;;) {
      const double elapsed = Seconds(start, Clock::now());
      const bool enough =
          elapsed >= args_.seconds && quiet[0] >= kMinQuietJobs &&
          (alternate ? quiet[1] >= kMinQuietJobs
                     : steps >= kMinTimedSupersteps);
      if (enough || elapsed >= args_.seconds + kMaxExtraSeconds) break;
      const bool traced = alternate && samples_.size() % 2 == 1;
      if (traced) tracer_.Enable();
      JobSample sample = RunOneJob(traced);
      tracer_.Disable();
      if (sample.quiet()) {
        steps += sample.step_ms.size();
        ++quiet[traced ? 1 : 0];
      }
      samples_.push_back(std::move(sample));
    }
  }

  JobSample RunOneJob(bool traced) {
    JobSample sample;
    sample.job = next_job_++;
    sample.traced = traced;
    PregelixJobConfig config = MakeJobConfig(w_, sample.job);
    config.profile_plan = traced;
    Reading before;
    if (traced) before = ReadCounters(*engine_->cluster, registry_);

    JobResult result;
    const int span = spans_.Begin("job", sample.job);
    const HostCpu host0 = HostCpu::Read();
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const Status s = engine_->runtime->Run(program_.get(), config, &result);
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = CpuSeconds();
    sample.noise = NoiseBetween(host0, HostCpu::Read());
    spans_.End(span);

    sample.wall_s = Seconds(t0, t1);
    sample.cpu_s = cpu1 - cpu0;
    for (const SuperstepStats& st : result.superstep_stats) {
      sample.step_ms.push_back(st.wall_seconds * 1e3);
    }
    if (traced) {
      const Reading after = ReadCounters(*engine_->cluster, registry_);
      sample.layers = JobLayerValues(result, sample.wall_s, before, after);
    }

    const int check = spans_.Begin("check", sample.job);
    const int64_t bad =
        s.ok() ? CountMismatches(*engine_->dfs, config.output_dir, w_.algo,
                                 engine_->ref)
               : -1;
    (void)engine_->dfs->DeleteRecursive(config.output_dir);
    spans_.End(check);
    sample.ok = bad == 0;
    if (!s.ok()) {
      fprintf(stderr, "job %lld failed: %s\n",
              static_cast<long long>(sample.job), s.ToString().c_str());
    } else if (bad != 0) {
      fprintf(stderr, "job %lld: output differs from ref_algos at %lld "
              "vertices\n", static_cast<long long>(sample.job),
              static_cast<long long>(bad));
    }
    return sample;
  }

  /// The jobs of one phase whose timings count: every job that ran on a
  /// quiet host, and at least the kMinQuietJobs least-stolen ones.
  std::vector<const JobSample*> Timed(bool traced) const {
    std::vector<const JobSample*> jobs;
    for (const JobSample& s : samples_) {
      if (s.traced == traced) jobs.push_back(&s);
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const JobSample* a, const JobSample* b) {
                       return a->steal() < b->steal();
                     });
    size_t keep = 0;
    while (keep < jobs.size() && jobs[keep]->quiet()) ++keep;
    jobs.resize(std::max(keep, std::min(kMinQuietJobs, jobs.size())));
    return jobs;
  }

  std::vector<double> Collect(bool traced, double JobSample::*field) const {
    std::vector<double> v;
    for (const JobSample* s : Timed(traced)) v.push_back(s->*field);
    return v;
  }

  int64_t Failed() const {
    int64_t n = 0;
    for (const JobSample& s : samples_) n += s.ok ? 0 : 1;
    return n;
  }

  void PrintEndToEnd() {
    std::vector<double> steps;
    for (const JobSample* s : Timed(false)) {
      steps.insert(steps.end(), s->step_ms.begin(), s->step_ms.end());
    }
    const std::vector<double> walls = Collect(false, &JobSample::wall_s);
    const std::vector<double> cpus = Collect(false, &JobSample::cpu_s);
    const double attempted = static_cast<double>(samples_.size());
    const double error_rate = static_cast<double>(Failed()) / attempted;
    metrics_ = {
        {"job_wall_s", {Median(walls), "s"}},
        {"superstep_ms_p50", {Quantile(steps, 0.5), "ms"}},
        {"superstep_ms_p90", {Quantile(steps, 0.9), "ms"}},
        {"job_cpu_s", {Median(cpus), "s"}},
        {"setup_s", {Median(setup_s_), "s"}},
        {"peak_rss_mb", {peak_rss_mb_, "MB"}},
        {"job_success_rate", {1.0 - error_rate, "ratio"}},
    };
    printf("timed: %zu of %zu jobs (those that ran with host cpu steal <= "
           "%.0f%%, at least the %zu least-stolen), %zu supersteps; closed "
           "loop, 1 client\n", walls.size(), samples_.size(), kQuietStealPct,
           kMinQuietJobs, steps.size());
    printf("  job_wall_s        %.4f s   (median of %zu jobs; IQR %.4f-%.4f)\n",
           Median(walls), walls.size(), Quantile(walls, 0.25),
           Quantile(walls, 0.75));
    printf("  superstep_ms_p50  %.3f ms  (of %zu supersteps)\n",
           Quantile(steps, 0.5), steps.size());
    printf("  superstep_ms_p90  %.3f ms  (of %zu supersteps)\n",
           Quantile(steps, 0.9), steps.size());
    printf("  job_cpu_s         %.4f s   (median of %zu jobs)\n", Median(cpus),
           cpus.size());
    printf("  setup_s           %.4f s   (median of %zu set-ups)\n",
           Median(setup_s_), kSetupRepeats);
    printf("  peak_rss_mb       %.1f MB  (one set-up and the timed jobs)\n",
           peak_rss_mb_);
    printf("  job_error_rate    %.4f     (%lld of %zu jobs failed or "
           "differ from ref_algos)\n",
           error_rate, static_cast<long long>(Failed()), samples_.size());
    PrintNoise();
  }

  void PrintNoise() const {
    if (noise_.ok) {
      printf("  host noise: cpu steal %.2f%%, idle %.2f%% over the timed "
             "jobs\n", noise_.steal_pct, noise_.idle_pct);
    } else {
      printf("  host noise: /proc/stat unavailable\n");
    }
  }

  Status RunProbes() {
    const ClusterConfig config =
        MakeClusterConfig(w_, scratch_, &tracer_, &registry_);
    const InMemoryGraph& g = engine_->graph;
    int span = spans_.Begin("probe_ref");
    std::vector<double> ref_ms;
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> r =
          w_.algo == Algo::kPageRank ? PageRankRef(g, kPageRankIterations)
                                     : SsspRef(g, kSsspSource);
      ref_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      if (r != engine_->ref) {
        return Status::Internal("ref_algos is not repeatable");
      }
    }
    spans_.End(span);
    probes_["graph.ref_ms"] = Median(ref_ms);
    probes_["graph.generate_s"] = Median(generate_s_);

    span = spans_.Begin("probe_storage");
    PREGELIX_RETURN_NOT_OK(ProbeStorage(config, g, program_.get(), scratch_,
                                        args_.seed,
                                        &probes_["storage.scan_ns_per_vertex"],
                                        &probes_["storage.get_ns"]));
    spans_.End(span);
    span = spans_.Begin("probe_groupby");
    PREGELIX_RETURN_NOT_OK(ProbeGroupBy(
        config, w_.algo, g, engine_->ref, program_.get(),
        engine_->cluster->overlap(), scratch_,
        &probes_["dataflow.groupby_ns_per_msg"]));
    spans_.End(span);
    return Status::OK();
  }

  void PrintPerLayer() {
    std::vector<const JobSample*> traced;
    for (const JobSample* s : Timed(true)) {
      if (s->ok) traced.push_back(s);
    }
    auto median_of = [&](const std::string& name) {
      std::vector<double> v;
      for (const JobSample* s : traced) v.push_back(s->layers.at(name));
      return Median(v);
    };
    Values values = probes_;
    if (!traced.empty()) {
      for (const auto& [name, unused] : traced.front()->layers) {
        values[name] = median_of(name);
      }
      std::vector<double> gaps;
      for (const JobSample* s : traced) {
        gaps.push_back(s->layers.at("pregel.step_wall_ms") /
                       probes_["graph.ref_ms"]);
      }
      values["pregel.ref_gap"] = Median(gaps);
    }
    const double wall0 = Median(Collect(false, &JobSample::wall_s));
    const double wall1 = Median(Collect(true, &JobSample::wall_s));
    const double cpu0 = Median(Collect(false, &JobSample::cpu_s));
    const double cpu1 = Median(Collect(true, &JobSample::cpu_s));
    values["bench.trace_wall_overhead_pct"] = 100.0 * (Ratio(wall1, wall0) - 1);
    values["bench.trace_cpu_overhead_pct"] = 100.0 * (Ratio(cpu1, cpu0) - 1);
    values["host.steal_pct"] = noise_.steal_pct;
    values["host.idle_pct"] = noise_.idle_pct;

    printf("traced: %zu jobs timed (plan profile + engine tracer on) against "
           "%zu untraced ones, alternating; %zu jobs in all\n", traced.size(),
           Collect(false, &JobSample::wall_s).size(), samples_.size());
    printf("  tracing overhead: job wall %.4f -> %.4f s (%+.1f%%), job cpu "
           "%.4f -> %.4f s (%+.1f%%)\n", wall0, wall1,
           values["bench.trace_wall_overhead_pct"], cpu0, cpu1,
           values["bench.trace_cpu_overhead_pct"]);
    std::vector<std::string> exact, varying;
    for (const LayerMetric& m : kLayerMetrics) {
      printf("  %-42s %.6g %s\n", m.name, values[m.name], m.unit);
      metrics_[m.name] = {values[m.name], m.unit};
      if (!m.count || traced.empty()) continue;
      double lo = traced.front()->layers.at(m.name), hi = lo;
      for (const JobSample* s : traced) {
        lo = std::min(lo, s->layers.at(m.name));
        hi = std::max(hi, s->layers.at(m.name));
      }
      if (lo == hi) {
        exact.push_back(m.name);
      } else {
        std::ostringstream os;
        os << m.name << " [" << lo << ".." << hi << "]";
        varying.push_back(os.str());
      }
    }
    // Printed beside the result, not in it: both read exactly 0 on every
    // workload (no guard misuse, no contended buffer-cache acquisition).
    printf("  %-42s %.6g ms\n  %-42s %.6g ns\n",
           "common.lock_wait_ms.buffer_cache",
           values["common.lock_wait_ms.buffer_cache"],
           "common.ledger_unattributed_ns",
           values["common.ledger_unattributed_ns"]);
    printf("  counts that repeat exactly over %zu traced jobs:", traced.size());
    for (const std::string& n : exact) printf(" %s", n.c_str());
    printf("\n  counts that vary:");
    for (const std::string& n : varying) printf(" %s", n.c_str());
    printf("%s\n", varying.empty() ? " none" : "");
    exact_ = std::move(exact);
    varying_ = std::move(varying);
    PrintNoise();
  }

  /// Spans, per-job records and (traced runs) the engine's Chrome trace.
  Status WriteRecords() {
    const std::string stem = args_.out + "/" + w_.name + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             std::to_string(args_.trace);
    std::ofstream os(stem + ".json");
    os << "{\"workload\":" << JsonString(w_.name) << ",\"seed\":" << args_.seed
       << ",\"trace\":" << args_.trace << ",\"setup_s\":[";
    for (size_t i = 0; i < setup_s_.size(); ++i) {
      os << (i ? "," : "") << Num(setup_s_[i]);
    }
    os << "],\"jobs\":[";
    for (size_t i = 0; i < samples_.size(); ++i) {
      const JobSample& s = samples_[i];
      os << (i ? ",\n" : "\n") << "{\"job\":" << s.job
         << ",\"traced\":" << (s.traced ? "true" : "false")
         << ",\"ok\":" << (s.ok ? "true" : "false")
         << ",\"wall_s\":" << Num(s.wall_s) << ",\"cpu_s\":" << Num(s.cpu_s)
         << ",\"host_steal_pct\":" << Num(s.noise.steal_pct)
         << ",\"host_idle_pct\":" << Num(s.noise.idle_pct)
         << ",\"superstep_ms\":[";
      for (size_t k = 0; k < s.step_ms.size(); ++k) {
        os << (k ? "," : "") << Num(s.step_ms[k]);
      }
      os << "],\"layers\":{";
      bool first = true;
      for (const auto& [name, value] : s.layers) {
        os << (first ? "" : ",") << JsonString(name) << ":" << Num(value);
        first = false;
      }
      os << "}}";
    }
    os << "],\n\"exact_counts\":[";
    for (size_t i = 0; i < exact_.size(); ++i) {
      os << (i ? "," : "") << JsonString(exact_[i]);
    }
    os << "],\"varying_counts\":[";
    for (size_t i = 0; i < varying_.size(); ++i) {
      os << (i ? "," : "") << JsonString(varying_[i]);
    }
    os << "],\n\"spans\":";
    spans_.WriteJson(os);
    os << "}\n";
    os.close();
    if (!os.good()) return Status::IoError("cannot write " + stem + ".json");
    if (args_.trace == 1) {
      PREGELIX_RETURN_NOT_OK(
          tracer_.ExportChromeTrace(stem + "-engine.json"));
    }
    printf("records in %s.json\n", stem.c_str());
    return Status::OK();
  }

 public:
  /// The result line: the last line of stdout.
  void PrintResult() const {
    std::string out = "{\"correct\": ";
    out += Failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(samples_.size());
    out += ", \"failed\": " + std::to_string(Failed());
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
             Num(m.first) + ", \"unit\": " + JsonString(m.second) + "}";
      first = false;
    }
    printf("%s}}\n", out.c_str());
  }

 private:
  const Workload& w_;
  const Args& args_;
  std::shared_ptr<PregelProgram> program_;
  std::string scratch_;
  Tracer tracer_;
  MetricsRegistry registry_;
  SpanLog spans_;
  std::unique_ptr<Engine> engine_;
  std::vector<double> setup_s_, generate_s_;
  double peak_rss_mb_ = 0;
  std::vector<JobSample> samples_;
  int64_t next_job_ = 0;
  HostNoise noise_;
  Values probes_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> exact_, varying_;
};

}  // namespace
}  // namespace pregelix

int main(int argc, char** argv) {
  using namespace pregelix;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload=NAME --seed=N --seconds=S "
            "--trace=0|1 --out=DIR\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.out, ec);
  Bench bench(*workload, args);
  const int rc = bench.Main();
  if (rc != 0) return rc;
  bench.PrintResult();
  return 0;
}
