// pregelix: command-line driver for the built-in algorithm library.
//
// A downstream user's entry point — generate or sample graphs, inspect them,
// and run any built-in vertex program with the paper's physical plan hints,
// without writing C++ (the analog of the Pregelix jar's Client.run).
//
//   pregelix generate --dfs=/tmp/d --type=webmap --vertices=20000 --out=web
//   pregelix stats    --dfs=/tmp/d --input=web
//   pregelix run      --dfs=/tmp/d --algorithm=pagerank --input=web
//                     --output=ranks --workers=4 --join=fullouter --stats
//   pregelix sample   --dfs=/tmp/d --input=web --out=web-small --vertices=2000
//
// Run with no arguments for full usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/crash_dump.h"
#include "common/event_journal.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "server/server.h"
#include "dataflow/cluster.h"
#include "dataflow/plan_verifier.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/sampler.h"
#include "pregel/plans.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::stoll(it->second);
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

/// Sets `*out` from `--flag`, spelled as `name` spells the enum values in
/// `choices`; the first choice is the default. Any other value is an error
/// naming the accepted ones.
template <typename Enum>
Status ParsePlanFlag(const Flags& flags, const std::string& flag,
                     std::initializer_list<Enum> choices,
                     const char* (*name)(Enum), Enum* out) {
  const std::string value = flags.Get(flag, name(*choices.begin()));
  std::string accepted;
  for (Enum choice : choices) {
    if (value == name(choice)) {
      *out = choice;
      return Status::OK();
    }
    if (!accepted.empty()) accepted += "|";
    accepted += name(choice);
  }
  return Status::InvalidArgument("unknown --" + flag + "=" + value +
                                 " (accepted: " + accepted + ")");
}

/// Parses the physical plan hint flags into `job` (shared by run, explain,
/// and verify).
Status ApplyPlanFlags(const Flags& flags, PregelixJobConfig* job) {
  PREGELIX_RETURN_NOT_OK(ParsePlanFlag(
      flags, "join",
      {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter, JoinStrategy::kAuto},
      JoinStrategyName, &job->join));
  PREGELIX_RETURN_NOT_OK(ParsePlanFlag(
      flags, "groupby",
      {GroupByStrategy::kDense, GroupByStrategy::kSort,
       GroupByStrategy::kHashSort, GroupByStrategy::kAuto},
      GroupByStrategyName, &job->groupby));
  PREGELIX_RETURN_NOT_OK(ParsePlanFlag(
      flags, "connector",
      {GroupByConnector::kUnmerged, GroupByConnector::kMerged,
       GroupByConnector::kAuto},
      GroupByConnectorName, &job->groupby_connector));
  return ParsePlanFlag(
      flags, "storage",
      {VertexStorage::kBTree, VertexStorage::kLsmBTree, VertexStorage::kAuto},
      VertexStorageName, &job->storage);
}

/// Builds the type-erased adapter for a typed vertex program; the deleter's
/// capture keeps the typed program alive as long as the adapter.
template <typename Program, typename... Args>
std::shared_ptr<PregelProgram> OwnAdapter(Args&&... args) {
  auto program = std::make_shared<Program>(std::forward<Args>(args)...);
  auto* adapter = new typename Program::Adapter(program.get());
  return std::shared_ptr<PregelProgram>(
      adapter, [program](PregelProgram* p) { delete p; });
}

/// Resolves an algorithm name (plus its --source/--iterations parameters)
/// into a self-owning program adapter.
Status MakeAlgorithmAdapter(const Flags& flags, const std::string& algorithm,
                            std::shared_ptr<PregelProgram>* out) {
  const int64_t source = flags.GetInt("source", 0);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 10));
  if (algorithm == "pagerank") {
    *out = OwnAdapter<PageRankProgram>(iterations);
  } else if (algorithm == "sssp") {
    *out = OwnAdapter<SsspProgram>(source);
  } else if (algorithm == "cc") {
    *out = OwnAdapter<ConnectedComponentsProgram>();
  } else if (algorithm == "reachability") {
    *out = OwnAdapter<ReachabilityProgram>(source);
  } else if (algorithm == "triangles") {
    *out = OwnAdapter<TriangleCountProgram>();
  } else if (algorithm == "cliques") {
    *out = OwnAdapter<MaximalCliquesProgram>();
  } else if (algorithm == "bfs-tree") {
    *out = OwnAdapter<BfsTreeProgram>(source);
  } else if (algorithm == "scc") {
    *out = OwnAdapter<SccProgram>();
  } else {
    return Status::InvalidArgument("unknown --algorithm=" + algorithm);
  }
  return Status::OK();
}

int Usage() {
  printf(R"(pregelix — Pregel graph analytics on a dataflow engine

usage: pregelix <command> --dfs=<root-dir> [flags]

commands:
  generate   create a synthetic graph
      --type=webmap|btc         degree profile (directed power-law / undirected)
      --vertices=N              vertex count
      --degree=D                average degree (default 8.0 / 8.94)
      --out=DIR                 DFS-relative output directory
      --parts=P                 part files (default 4)
      --seed=S                  deterministic seed (default 42)
  scaleup    copy+renumber an existing graph (Table 4 recipe)
      --input=DIR --out=DIR --factor=K [--parts=P]
  sample     random-walk down-sample (Table 3 recipe)
      --input=DIR --out=DIR --vertices=N [--parts=P] [--seed=S]
  stats      print vertex/edge/size statistics of a graph directory
      --input=DIR
  run        execute a built-in algorithm
      --algorithm=pagerank|sssp|cc|reachability|triangles|cliques|bfs-tree|scc
      --input=DIR [--output=DIR]
      --workers=N               simulated worker machines (default 4)
      --worker-ram-mb=M         simulated RAM per worker (default 16)
      --join=fullouter|leftouter|auto            (default fullouter)
      --groupby=dense|sort|hashsort|auto         (default dense)
      --connector=unmerged|merged|auto           (default unmerged)
      --storage=btree|lsm|auto                   (default btree)
                                `auto` lets the feedback-driven plan
                                optimizer re-choose the join and connector
                                per superstep (storage: once at admission);
                                --groupby=auto runs the default, `dense`.
                                `dense` runs sort where the combiner is
                                variable-width or a partition's vids (every
                                P-th, P partitions) do not fit the group-by
                                budget, and sends uncombined where the whole
                                vid range does not fit (sort under
                                --connector=merged)
      --source=ID               source vertex (sssp/reachability/bfs-tree)
      --iterations=K            PageRank iterations (default 10)
      --checkpoint-interval=K   checkpoint every K supersteps (default off)
      --max-supersteps=K        safety bound (default 1000)
      --stats                   print per-superstep statistics
      --stall-factor=F          warn when a superstep exceeds F x the trailing
                                mean wall time, and 100 ms (default 4, <=0
                                disables)
      --verify                  statically verify the job's physical plans
                                (structure, declared stream properties,
                                memory budgets) and abort before running if
                                any is invalid; add --all-plans to also
                                check every join x connector plan under the
                                configured group-by
      --trace-out=FILE          write a Chrome trace_event JSON (open in
                                chrome://tracing or ui.perfetto.dev)
      --metrics-json=FILE       write the metrics registry as JSON
      --metrics-prom=FILE       write the metrics registry in Prometheus
                                text exposition format
      --admin-port=N            serve live /metrics, /jobs, /events over HTTP
                                on 127.0.0.1:N while the job runs (0 picks an
                                ephemeral port; printed on startup)
      --events-out=FILE         spill every structured journal event as one
                                JSONL line (also flushed on abnormal exit)
  explain    run an algorithm with EXPLAIN ANALYZE: all `run` flags, plus an
             annotated plan tree (per-operator tuple/frame/byte counts, wall
             time, memory high-water marks, spills, worker skew, critical
             path) in the paper's operator vocabulary
      --top=K                   show the K hottest operators (default 3)
      --profile-json=FILE       export the cumulative plan profile as JSON
                                (timing-free: byte-identical across runs)
      --time-ledger             append the worker time-ledger rollup: category
                                totals, per-operator time, and the hottest
                                contended locks (DESIGN.md section 20)
  verify     static plan verification without running anything (no --dfs or
             input graph needed): builds the load/superstep/dump/checkpoint/
             recovery plans the flags select and checks structure, declared
             stream properties, and memory-budget feasibility (DESIGN.md §18)
      --algorithm=NAME          vertex program (default pagerank)
      --workers=N --worker-ram-mb=M   budgets to verify against
      --join/--groupby/--connector/--storage   plan hints, as for run
      --configured-only         check only the configured plan; the default
                                sweeps every join x connector combination
                                the optimizer could switch to, under the
                                configured group-by
  serve      standalone observability server (no --dfs needed): serves the
             process-global metrics registry, job table, and event journal
      --admin-port=N            listen port (default 9090; 0 = ephemeral)
      --serve-seconds=S         exit after S seconds (default 0 = forever)

global flags:
      --log-level=debug|info|warn|error   minimum log level (overrides the
                                PREGELIX_LOG_LEVEL environment variable)
A flag the command does not list is an error.
)");
  return 2;
}

/// `explain --time-ledger`: where every attached engine-thread nanosecond
/// went (DESIGN.md section 20) — category totals with shares, per-operator
/// time, the hottest contended locks, and the conservation
/// residue. The same totals /profilez and the Prometheus exposition report.
void PrintTimeLedger() {
  const TimeLedgerSnapshot snap = TimeLedger::Global().TakeSnapshot();
  printf("\n== time ledger ==\n");
  printf("attached thread time %.3f s over %zu cells; unattributed %lld ns, "
         "guard misuse %lld\n",
         static_cast<double>(snap.elapsed_ns) / 1e9, snap.cells.size(),
         static_cast<long long>(snap.unattributed_ns),
         static_cast<long long>(snap.misuse_count));

  const double attributed = static_cast<double>(snap.attributed_ns());
  printf("%-14s %12s %7s\n", "category", "seconds", "share");
  for (int c = 0; c < kNumTimeCategories; ++c) {
    if (snap.category_ns[c] == 0) continue;
    printf("%-14s %12.6f %6.1f%%\n", kTimeCategoryNames[c],
           static_cast<double>(snap.category_ns[c]) / 1e9,
           attributed == 0
               ? 0.0
               : 100.0 * static_cast<double>(snap.category_ns[c]) /
                     attributed);
  }

  // Labeled cells are executor task threads named by operator; unlabeled
  // ones (pool workers, the driver) are skipped here — the category table
  // above already covers them.
  std::map<std::string, int64_t> op_total;
  for (const TimeLedgerSnapshot::Cell& cell : snap.cells) {
    if (cell.label.empty()) continue;
    int64_t total = 0;
    for (int64_t ns : cell.ns) total += ns;
    op_total[cell.label] += total;
  }
  if (!op_total.empty()) {
    printf("\n%-28s %12s\n", "operator", "seconds");
    for (const auto& [label, total_ns] : op_total) {
      printf("%-28s %12.6f\n", label.c_str(),
             static_cast<double>(total_ns) / 1e9);
    }
  }

  if (!snap.locks.empty()) {
    printf("\n%-20s %12s %10s\n", "lock", "wait-s", "contended");
    size_t shown = 0;
    for (const TimeLedgerSnapshot::LockWait& l : snap.locks) {
      if (++shown > 10) break;
      printf("%-20s %12.6f %10lld\n", l.name.c_str(),
             static_cast<double>(l.ns) / 1e9,
             static_cast<long long>(l.count));
    }
  }
}

/// The `pregelix explain` report: annotated cumulative plan tree, the
/// hottest operators, a per-superstep rollup, and the optional
/// deterministic JSON export.
Status PrintExplain(const Flags& flags, const JobResult& result) {
  const PlanProfile& profile = *result.plan_profile;

  std::ostringstream tree;
  profile.RenderTree(tree);
  printf("\n== EXPLAIN ANALYZE: cumulative superstep plan ==\n%s",
         tree.str().c_str());

  // Shares of the summed operator wall: operators that run at once each
  // count their own attached time, so the plan wall is no denominator.
  const int top_k = static_cast<int>(flags.GetInt("top", 3));
  const std::vector<int> top = profile.TopByWall(top_k);
  if (!top.empty()) {
    uint64_t op_wall_ns = 0;
    for (const PlanOperatorProfile& op : profile.ops()) {
      op_wall_ns += op.total.wall_ns;
    }
    printf("\n== top %zu operators by wall time (share of %.3f ms summed "
           "operator wall) ==\n",
           top.size(), static_cast<double>(op_wall_ns) / 1e6);
    for (size_t rank = 0; rank < top.size(); ++rank) {
      const PlanOperatorProfile& op = profile.ops()[top[rank]];
      const double share =
          op_wall_ns == 0 ? 0.0
                          : 100.0 * static_cast<double>(op.total.wall_ns) /
                                static_cast<double>(op_wall_ns);
      printf("%2zu. %-28s %9.3f ms  (%5.1f%%, skew %.2fx%s)\n", rank + 1,
             op.name.c_str(), static_cast<double>(op.total.wall_ns) / 1e6,
             share, op.skew, op.on_critical_path ? ", on critical path" : "");
    }
  }

  printf("\n== per-superstep rollup ==\n");
  printf("%-10s %-5s %-9s %-9s %-10s %-10s %-10s %-10s %-14s %-12s %-7s\n",
         "superstep", "join", "groupby", "connector", "wall-ms", "live",
         "frontier", "messages", "shuffled-bytes", "cache-misses", "spills");
  for (const SuperstepStats& s : result.superstep_stats) {
    printf(
        "%-10lld %-5s %-9s %-9s %-10.3f %-10lld %-10lld %-10lld %-14llu "
        "%-12llu %-7llu\n",
        static_cast<long long>(s.superstep),
        s.used_left_outer_join ? "LOJ" : "FOJ",
        GroupByStrategyName(s.groupby_used),
        GroupByConnectorName(s.connector_used), s.wall_seconds * 1e3,
        static_cast<long long>(s.live_vertices),
        static_cast<long long>(s.frontier()),
        static_cast<long long>(s.messages),
        static_cast<unsigned long long>(s.bytes_shuffled),
        static_cast<unsigned long long>(s.cache_misses),
        static_cast<unsigned long long>(s.spill_count));
  }

  // The optimizer's trail: one line per superstep whose plan differed from
  // the previous one (the decision journal `plan.switch` mirrors this).
  int64_t switches = 0;
  for (const PlanDecisionRecord& r : result.plan_decisions) {
    if (!r.switched.empty()) ++switches;
  }
  printf("\n== plan decisions (%zu supersteps, %lld switches) ==\n",
         result.plan_decisions.size(), static_cast<long long>(switches));
  for (const PlanDecisionRecord& r : result.plan_decisions) {
    if (r.switched.empty()) continue;
    printf("superstep %-4lld -> %-26s switched=%s reason=%s%s\n",
           static_cast<long long>(r.superstep),
           PlanDecisionString(r.plan).c_str(), r.switched.c_str(),
           r.reason.c_str(), r.reactive ? " (reactive)" : "");
  }

  const std::string json_path = flags.Get("profile-json");
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot open profile output " + json_path);
    }
    // Timing-free export: byte-identical across runs of the same job.
    profile.WriteJson(out, /*include_timing=*/false);
    out << "\n";
    out.close();
    if (!out.good()) return Status::IoError("short write to " + json_path);
    printf("\nplan profile in %s\n", json_path.c_str());
  }
  if (flags.Has("time-ledger")) PrintTimeLedger();
  return Status::OK();
}

/// Static plan audit (DESIGN.md §18): builds every physical plan the job
/// can produce — load, superstep (the configured plan, or with `all_plans`
/// every join x connector combination the optimizer could ever switch to,
/// under the configured group-by), dump, checkpoint, recovery — and runs
/// the plan verifier over each without executing anything. Prints one line
/// per clean plan and the full compiler-style diagnostic per rejected one.
Status VerifyJobPlans(SimulatedCluster* cluster, DistributedFileSystem* dfs,
                      const PregelixJobConfig& base_job,
                      PregelProgram* program, bool all_plans) {
  JobRuntimeContext ctx;
  PregelixJobConfig job = base_job;
  ctx.program = program;
  ctx.job_config = &job;
  ctx.cluster = cluster;
  ctx.dfs = dfs;
  ctx.job_id = "verify";
  ctx.current_superstep = 1;

  const PlanVerifyOptions vopts = PlanVerifyOptionsFrom(cluster->config());
  int checked = 0;
  int failed = 0;
  auto check = [&](const std::string& label, const JobSpec& spec) {
    ++checked;
    const PlanVerifyResult verdict = VerifyPlan(spec, vopts);
    if (verdict.ok()) {
      printf("verify %-44s OK (%zu ops, %zu connectors)\n", label.c_str(),
             spec.ops().size(), spec.connectors().size());
    } else {
      ++failed;
      printf("verify %-44s FAILED\n%s\n", label.c_str(),
             verdict.Render(spec.name()).c_str());
    }
  };
  auto check_superstep = [&]() {
    // BuildSuperstepJob resolves kAuto knobs into ctx.current_*;
    // label with what was actually planned.
    const JobSpec spec = BuildSuperstepJob(&ctx);
    const PlanDecision d{ctx.current_join, ctx.current_groupby,
                         ctx.current_connector};
    check("superstep[" + PlanDecisionString(d) + "]", spec);
  };

  check("load", BuildLoadJob(&ctx));
  if (all_plans) {
    // The optimizer's full reachable plan space: any join x connector
    // combination may become the next superstep's plan, so all of them must
    // verify. The group-by is not switched; it resolves from the configured
    // hint under each connector.
    for (JoinStrategy join :
         {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
      for (GroupByConnector conn :
           {GroupByConnector::kUnmerged, GroupByConnector::kMerged}) {
        job.join = join;
        job.groupby_connector = conn;
        check_superstep();
      }
    }
    job = base_job;
  } else {
    check_superstep();
  }
  check("dump", BuildDumpJob(&ctx));
  check("checkpoint", BuildCheckpointJob(&ctx, /*superstep=*/1));
  check("recovery", BuildRecoveryJob(&ctx, /*superstep=*/1));

  if (failed > 0) {
    return Status::InvalidArgument(std::to_string(failed) + " of " +
                                   std::to_string(checked) +
                                   " plans failed verification");
  }
  printf("verified %d plans: all OK\n", checked);
  return Status::OK();
}

/// `pregelix verify`: offline static analysis of the configured job's
/// physical plans against the configured cluster budgets. Builds the plans
/// exactly as `run` would but executes none of them, so it needs no input
/// graph and (unless --dfs is given) no DFS.
Status VerifyCommand(const Flags& flags) {
  TempDir scratch("pregelix-verify");
  DistributedFileSystem dfs(
      flags.Has("dfs") ? flags.Get("dfs") : scratch.Sub("dfs"));

  ClusterConfig config;
  config.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  config.worker_ram_bytes =
      static_cast<size_t>(flags.GetInt("worker-ram-mb", 16)) << 20;
  config.temp_root = scratch.Sub("cluster");
  SimulatedCluster cluster(config);

  PregelixJobConfig job;
  job.input_dir = flags.Get("input");
  job.output_dir = flags.Get("output");
  PREGELIX_RETURN_NOT_OK(ApplyPlanFlags(flags, &job));
  const std::string algorithm = flags.Get("algorithm", "pagerank");
  job.name = "verify-" + algorithm;

  std::shared_ptr<PregelProgram> adapter;
  PREGELIX_RETURN_NOT_OK(MakeAlgorithmAdapter(flags, algorithm, &adapter));

  // `verify` defaults to the exhaustive sweep; --configured-only restricts
  // it to the plan the flags select (what `run --verify` checks).
  return VerifyJobPlans(&cluster, &dfs, job, adapter.get(),
                        /*all_plans=*/!flags.Has("configured-only"));
}

Status RunCommand(const Flags& flags, bool explain) {
  // Parse the job first, so a bad flag fails before any observability
  // output is set up.
  PregelixJobConfig job;
  job.input_dir = flags.Get("input");
  job.output_dir = flags.Get("output");
  job.max_supersteps = static_cast<int>(flags.GetInt("max-supersteps", 1000));
  job.checkpoint_interval =
      static_cast<int>(flags.GetInt("checkpoint-interval", 0));
  if (flags.Has("stall-factor")) {
    job.stall_factor = std::stod(flags.Get("stall-factor"));
  }
  PREGELIX_RETURN_NOT_OK(ApplyPlanFlags(flags, &job));
  const std::string algorithm = flags.Get("algorithm");
  job.name = "cli-" + algorithm;
  std::shared_ptr<PregelProgram> adapter;
  PREGELIX_RETURN_NOT_OK(MakeAlgorithmAdapter(flags, algorithm, &adapter));

  DistributedFileSystem dfs(flags.Get("dfs"));
  TempDir scratch("pregelix-cli");

  ClusterConfig config;
  config.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  config.worker_ram_bytes =
      static_cast<size_t>(flags.GetInt("worker-ram-mb", 16)) << 20;
  config.temp_root = scratch.Sub("cluster");
  const std::string trace_out = flags.Get("trace-out");
  const std::string metrics_json = flags.Get("metrics-json");
  const std::string metrics_prom = flags.Get("metrics-prom");
  const std::string events_out = flags.Get("events-out");
  // Deliberately leaked, but reachable through these statics: the
  // crash-dump exit hooks may fire after this function (and main) return,
  // and they read these objects.
  static Tracer& tracer = *new Tracer();
  static MetricsRegistry& registry = *new MetricsRegistry();
  if (!trace_out.empty()) {
    tracer.Enable();
    config.tracer = &tracer;
  }
  if (!metrics_json.empty() || !metrics_prom.empty()) {
    config.metrics_registry = &registry;
  }
  bool events_spilling = false;
  if (!events_out.empty()) {
    PREGELIX_RETURN_NOT_OK(EventJournal::Global().SetSpillPath(events_out));
    events_spilling = true;
  }
  if (!trace_out.empty() || !metrics_json.empty() || !metrics_prom.empty() ||
      !events_out.empty()) {
    // Flush observability output even when the process dies abnormally
    // (exit() mid-job or a PREGELIX_CHECK abort).
    crash_dump::Configure(&tracer, trace_out, &registry, metrics_json,
                          metrics_prom, &EventJournal::Global(), events_out,
                          events_spilling);
  }
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);

  // Live observability: --admin-port serves /metrics, /jobs, /events from
  // this process while the job runs (DESIGN.md §15).
  std::unique_ptr<server::ObservabilityServer> admin;
  if (flags.Has("admin-port")) {
    server::ServerOptions opts;
    opts.port = static_cast<int>(flags.GetInt("admin-port", 0));
    opts.build_info = "pregelix run";
    admin = std::make_unique<server::ObservabilityServer>(
        opts, cluster.registry(), nullptr, nullptr);
    PREGELIX_RETURN_NOT_OK(admin->Start());
    admin->SetPreScrapeHook([&cluster]() { cluster.PublishMetrics(); });
    admin->SetReady(true);
    printf("admin server listening on %s:%d\n", admin->host().c_str(),
           admin->port());
    fflush(stdout);
  }

  if (flags.Has("verify")) {
    // Audit every plan this job can produce before running any of them.
    PREGELIX_RETURN_NOT_OK(VerifyJobPlans(&cluster, &dfs, job, adapter.get(),
                                          flags.Has("all-plans")));
  }

  JobResult result;
  PREGELIX_RETURN_NOT_OK(runtime.Run(adapter.get(), job, &result));

  if (!trace_out.empty()) {
    PREGELIX_RETURN_NOT_OK(tracer.ExportChromeTrace(trace_out));
    printf("trace (%llu events) in %s\n",
           static_cast<unsigned long long>(tracer.event_count()),
           trace_out.c_str());
  }
  if (!metrics_json.empty() || !metrics_prom.empty()) {
    cluster.PublishMetrics();
    TimeLedger::Global().PublishMetrics(&registry);
    if (!metrics_json.empty()) {
      PREGELIX_RETURN_NOT_OK(registry.ExportJson(metrics_json));
      printf("metrics in %s\n", metrics_json.c_str());
    }
    if (!metrics_prom.empty()) {
      PREGELIX_RETURN_NOT_OK(registry.ExportPrometheus(metrics_prom));
      // The ledger exposition rides in the same file, after the registry's
      // families — the same layout /metrics serves (DESIGN.md section 20).
      std::ofstream prom(metrics_prom, std::ios::app);
      if (!prom.is_open()) {
        return Status::IoError("cannot append to " + metrics_prom);
      }
      TimeLedger::Global().WritePrometheus(prom);
      prom.close();
      if (!prom.good()) return Status::IoError("short write to " + metrics_prom);
      printf("prometheus metrics in %s\n", metrics_prom.c_str());
    }
  }
  if (!events_out.empty()) {
    EventJournal::Global().FlushSpill();
    printf("event journal in %s\n", events_out.c_str());
  }
  // All observability output is on disk; silence the exit hooks so they
  // don't re-export over the finished files during exit().
  crash_dump::MarkClean();

  if (explain) {
    PREGELIX_RETURN_NOT_OK(PrintExplain(flags, result));
  }

  printf("%s: %lld supersteps over %lld vertices / %lld edges\n",
         algorithm.c_str(), static_cast<long long>(result.supersteps),
         static_cast<long long>(result.final_gs.num_vertices),
         static_cast<long long>(result.final_gs.num_edges));
  printf("simulated: load %.3fs + supersteps %.3fs + dump %.3fs = %.3fs "
         "(%.4fs/iteration); wall %.3fs\n",
         result.load_sim_seconds, result.supersteps_sim_seconds,
         result.dump_sim_seconds, result.total_sim_seconds,
         result.avg_iteration_sim_seconds, result.wall_seconds);
  if (algorithm == "triangles") {
    int64_t total = 0;
    if (DeserializeValue(Slice(result.final_gs.aggregate), &total)) {
      printf("triangles: %lld\n", static_cast<long long>(total));
    }
  }
  if (algorithm == "cliques") {
    std::pair<int64_t, int64_t> agg;
    if (DeserializeValue(Slice(result.final_gs.aggregate), &agg)) {
      printf("maximal cliques (>=3): %lld, largest: %lld\n",
             static_cast<long long>(agg.first),
             static_cast<long long>(agg.second));
    }
  }
  if (flags.Has("stats")) {
    printf("%-10s %-8s %-12s %-10s %-10s %-10s %-12s %-10s\n", "superstep",
           "join", "sim-seconds", "live", "frontier", "messages",
           "disk-bytes", "net-bytes");
    for (const SuperstepStats& s : result.superstep_stats) {
      printf("%-10lld %-8s %-12.4f %-10lld %-10lld %-10lld %-12llu %-10llu\n",
             static_cast<long long>(s.superstep),
             s.used_left_outer_join ? "LOJ" : "FOJ", s.sim_seconds,
             static_cast<long long>(s.live_vertices),
             static_cast<long long>(s.frontier()),
             static_cast<long long>(s.messages),
             static_cast<unsigned long long>(
                 s.cluster_delta.disk_read_bytes +
                 s.cluster_delta.disk_write_bytes),
             static_cast<unsigned long long>(s.cluster_delta.net_bytes));
    }
  }
  if (!job.output_dir.empty()) {
    printf("results in %s\n", dfs.Resolve(job.output_dir).c_str());
  }
  return Status::OK();
}

/// `pregelix serve`: a standalone scrape target. Useful as a systemd-style
/// long-running endpoint and for smoke tests (tools/bench_smoke.sh); jobs
/// run in *other* processes do not show up here — the registries are
/// process-local. --admin-port=0 picks an ephemeral port and prints it.
Status ServeCommand(const Flags& flags) {
  server::ServerOptions opts;
  opts.port = static_cast<int>(flags.GetInt("admin-port", 9090));
  opts.build_info = "pregelix serve";
  server::ObservabilityServer srv(opts, nullptr, nullptr, nullptr);
  PREGELIX_RETURN_NOT_OK(srv.Start());
  srv.SetReady(true);
  EventJournal::Global().Append("server.start", "", -1,
                                {{"port", std::to_string(srv.port())}});
  printf("admin server listening on %s:%d\n", srv.host().c_str(),
         srv.port());
  fflush(stdout);

  const int64_t serve_seconds = flags.GetInt("serve-seconds", 0);
  const auto started = std::chrono::steady_clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (serve_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(serve_seconds)) {
      break;
    }
  }
  srv.Stop();
  return Status::OK();
}

Status GenerateCommand(const Flags& flags) {
  DistributedFileSystem dfs(flags.Get("dfs"));
  GraphStats stats;
  const std::string type = flags.Get("type", "webmap");
  const int64_t vertices = flags.GetInt("vertices", 10000);
  const int parts = static_cast<int>(flags.GetInt("parts", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (type == "webmap") {
    PREGELIX_RETURN_NOT_OK(GenerateWebmapLike(
        dfs, flags.Get("out"), parts, vertices,
        std::stod(flags.Get("degree", "8.0")), seed, &stats));
  } else if (type == "btc") {
    PREGELIX_RETURN_NOT_OK(GenerateBtcLike(
        dfs, flags.Get("out"), parts, vertices,
        std::stod(flags.Get("degree", "8.94")), seed, &stats));
  } else {
    return Status::InvalidArgument("unknown --type=" + type);
  }
  printf("%s: %lld vertices, %llu edges (avg degree %.2f), %.2f MB\n",
         flags.Get("out").c_str(), static_cast<long long>(stats.num_vertices),
         static_cast<unsigned long long>(stats.num_edges),
         stats.avg_degree(),
         static_cast<double>(stats.size_bytes) / (1 << 20));
  return Status::OK();
}

Status StatsCommand(const Flags& flags) {
  DistributedFileSystem dfs(flags.Get("dfs"));
  GraphStats stats;
  PREGELIX_RETURN_NOT_OK(MeasureGraph(dfs, flags.Get("input"), &stats));
  printf("%s: %lld vertices, %llu edges (avg degree %.2f), %.2f MB\n",
         flags.Get("input").c_str(),
         static_cast<long long>(stats.num_vertices),
         static_cast<unsigned long long>(stats.num_edges),
         stats.avg_degree(),
         static_cast<double>(stats.size_bytes) / (1 << 20));
  return Status::OK();
}

Status SampleCommand(const Flags& flags) {
  DistributedFileSystem dfs(flags.Get("dfs"));
  PREGELIX_RETURN_NOT_OK(SampleGraphDir(
      dfs, flags.Get("input"), flags.Get("out"),
      static_cast<int>(flags.GetInt("parts", 4)),
      flags.GetInt("vertices", 1000),
      static_cast<uint64_t>(flags.GetInt("seed", 42))));
  GraphStats stats;
  PREGELIX_RETURN_NOT_OK(MeasureGraph(dfs, flags.Get("out"), &stats));
  printf("sampled %s -> %s: %lld vertices, %llu edges\n",
         flags.Get("input").c_str(), flags.Get("out").c_str(),
         static_cast<long long>(stats.num_vertices),
         static_cast<unsigned long long>(stats.num_edges));
  return Status::OK();
}

Status ScaleUpCommand(const Flags& flags) {
  DistributedFileSystem dfs(flags.Get("dfs"));
  GraphStats stats;
  PREGELIX_RETURN_NOT_OK(ScaleUpGraph(
      dfs, flags.Get("input"), flags.Get("out"),
      static_cast<int>(flags.GetInt("parts", 4)),
      static_cast<int>(flags.GetInt("factor", 2)), &stats));
  printf("scaled %s x%lld -> %s: %lld vertices, %llu edges\n",
         flags.Get("input").c_str(),
         static_cast<long long>(flags.GetInt("factor", 2)),
         flags.Get("out").c_str(),
         static_cast<long long>(stats.num_vertices),
         static_cast<unsigned long long>(stats.num_edges));
  return Status::OK();
}

/// One CLI command and the flags it reads, besides the global `--dfs` and
/// `--log-level`.
struct Command {
  std::string name;
  std::vector<std::string> flags;
  std::function<Status(const Flags&)> run;
};

std::vector<Command> Commands() {
  // A job's plans: what run, explain and verify all read.
  const std::vector<std::string> plan = {
      "algorithm", "source", "iterations", "input", "output", "workers",
      "worker-ram-mb", "join", "groupby", "connector", "storage"};
  std::vector<std::string> run = plan;
  run.insert(run.end(),
             {"max-supersteps", "checkpoint-interval", "stall-factor",
              "stats", "verify", "all-plans", "trace-out", "metrics-json",
              "metrics-prom", "admin-port", "events-out"});
  std::vector<std::string> explain = run;
  explain.insert(explain.end(), {"top", "profile-json", "time-ledger"});
  std::vector<std::string> verify = plan;
  verify.push_back("configured-only");
  return {
      {"generate",
       {"type", "vertices", "degree", "out", "parts", "seed"},
       GenerateCommand},
      {"scaleup", {"input", "out", "factor", "parts"}, ScaleUpCommand},
      {"sample", {"input", "out", "vertices", "parts", "seed"}, SampleCommand},
      {"stats", {"input"}, StatsCommand},
      {"run", run,
       [](const Flags& f) { return RunCommand(f, /*explain=*/false); }},
      {"explain", explain,
       [](const Flags& f) { return RunCommand(f, /*explain=*/true); }},
      {"verify", verify, VerifyCommand},
      {"serve", {"admin-port", "serve-seconds"}, ServeCommand},
  };
}

int Main(int argc, char** argv) {
  InitLogLevelFromEnv();
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const std::vector<Command> commands = Commands();
  const Command* cmd = nullptr;
  for (const Command& c : commands) {
    if (c.name == command) cmd = &c;
  }
  if (cmd == nullptr) return Usage();
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      fprintf(stderr, "bad flag: %s\n", arg.c_str());
      return Usage();
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg] = "true";
    } else {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  // A flag the command does not read fails before anything runs, so a
  // misspelt or removed flag never runs silently with its default.
  for (const auto& [key, value] : flags.values) {
    if (key == "dfs" || key == "log-level") continue;
    if (std::find(cmd->flags.begin(), cmd->flags.end(), key) ==
        cmd->flags.end()) {
      fprintf(stderr, "error: unknown flag --%s for pregelix %s\n",
              key.c_str(), command.c_str());
      return 1;
    }
  }
  if (flags.Has("log-level")) {
    LogLevel level;
    if (!ParseLogLevel(flags.Get("log-level"), &level)) {
      fprintf(stderr, "bad --log-level=%s (want debug|info|warn|error)\n",
              flags.Get("log-level").c_str());
      return Usage();
    }
    SetLogLevel(level);
  }
  if (!flags.Has("dfs") && command != "serve" && command != "verify") {
    fprintf(stderr, "--dfs=<root-dir> is required\n");
    return Usage();
  }
  const Status s = cmd->run(flags);
  if (!s.ok()) {
    fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pregelix

int main(int argc, char** argv) { return pregelix::Main(argc, argv); }
