#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "algorithms/algorithms.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "dataflow/cluster.h"
#include "graph/sampler.h"

namespace pregelix {
namespace bench {

Env::Env() : dir_("pregelix-bench") {
  // Bench binaries share the harness entry point, so the environment knobs
  // (PREGELIX_LOG_LEVEL and the metrics export paths) apply to all of them.
  InitLogLevelFromEnv();
  dfs_ = std::make_unique<DistributedFileSystem>(dir_.Sub("dfs"));
}

namespace {

/// Records a dataset's generation seed in the process-wide registry, so the
/// PREGELIX_METRICS_JSON artifact is self-reproducing: the seed that built
/// every graph a failing run touched is in the output.
void RecordDatasetSeed(const Dataset& d) {
  MetricsRegistry::Global()
      .GetGauge("pregelix.bench.dataset_seed", {{"dataset", d.name}})
      ->Set(static_cast<int64_t>(d.seed));
}

}  // namespace

Dataset Env::Webmap(const std::string& name, int64_t vertices,
                    double avg_degree) {
  Dataset d;
  d.name = name;
  d.dir = "data/" + name;
  d.seed = 1000 + static_cast<uint64_t>(vertices);
  Status s = GenerateWebmapLike(*dfs_, d.dir, 4, vertices, avg_degree,
                                d.seed, &d.stats);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  d.stats.name = name;
  RecordDatasetSeed(d);
  return d;
}

Dataset Env::Btc(const std::string& name, int64_t vertices,
                 double avg_degree) {
  Dataset d;
  d.name = name;
  d.dir = "data/" + name;
  d.seed = 2000 + static_cast<uint64_t>(vertices);
  Status s = GenerateBtcLike(*dfs_, d.dir, 4, vertices, avg_degree, d.seed,
                             &d.stats);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  d.stats.name = name;
  RecordDatasetSeed(d);
  return d;
}

Dataset Env::ScaleUp(const Dataset& base, const std::string& name,
                     int factor) {
  Dataset d;
  d.name = name;
  d.dir = "data/" + name;
  Status s = ScaleUpGraph(*dfs_, base.dir, d.dir, 4, factor, &d.stats);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  d.stats.name = name;
  d.seed = base.seed;  // deterministic transform: the base seed reproduces it
  RecordDatasetSeed(d);
  return d;
}

Dataset Env::Sample(const Dataset& base, const std::string& name,
                    int64_t vertices) {
  Dataset d;
  d.name = name;
  d.dir = "data/" + name;
  d.seed = 3000 + static_cast<uint64_t>(vertices);
  Status s = SampleGraphDir(*dfs_, base.dir, d.dir, 4, vertices, d.seed);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  s = MeasureGraph(*dfs_, d.dir, &d.stats);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  d.stats.name = name;
  RecordDatasetSeed(d);
  return d;
}

ClusterConfig Env::Cluster(int workers, size_t worker_ram_bytes) {
  ClusterConfig config;
  config.num_workers = workers;
  config.worker_ram_bytes = worker_ram_bytes;
  config.frame_size = 8 * 1024;
  config.page_size = 2 * 1024;
  config.temp_root = dir_.Sub("cluster-" + std::to_string(cluster_counter_++));
  return config;
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kPageRank:
      return "PageRank";
    case Algorithm::kSssp:
      return "SSSP";
    case Algorithm::kCc:
      return "CC";
  }
  return "?";
}

namespace {

/// Owns one typed program + adapter pair for a run.
struct ProgramHolder {
  std::unique_ptr<PageRankProgram> pagerank;
  std::unique_ptr<PageRankProgram::Adapter> pagerank_adapter;
  std::unique_ptr<SsspProgram> sssp;
  std::unique_ptr<SsspProgram::Adapter> sssp_adapter;
  std::unique_ptr<ConnectedComponentsProgram> cc;
  std::unique_ptr<ConnectedComponentsProgram::Adapter> cc_adapter;

  PregelProgram* Make(Algorithm algorithm, int pagerank_iterations) {
    switch (algorithm) {
      case Algorithm::kPageRank:
        pagerank = std::make_unique<PageRankProgram>(pagerank_iterations);
        pagerank_adapter =
            std::make_unique<PageRankProgram::Adapter>(pagerank.get());
        return pagerank_adapter.get();
      case Algorithm::kSssp:
        sssp = std::make_unique<SsspProgram>(0);
        sssp_adapter = std::make_unique<SsspProgram::Adapter>(sssp.get());
        return sssp_adapter.get();
      case Algorithm::kCc:
        cc = std::make_unique<ConnectedComponentsProgram>();
        cc_adapter =
            std::make_unique<ConnectedComponentsProgram::Adapter>(cc.get());
        return cc_adapter.get();
    }
    return nullptr;
  }
};

}  // namespace

Outcome RunPregelix(Env& env, const Dataset& dataset, Algorithm algorithm,
                    const ClusterConfig& cluster_config,
                    const PregelixPlan& plan, int pagerank_iterations) {
  Outcome outcome;
  SimulatedCluster cluster(cluster_config);
  PregelixRuntime runtime(&cluster, &env.dfs());
  ProgramHolder holder;
  PregelProgram* program = holder.Make(algorithm, pagerank_iterations);

  PregelixJobConfig job;
  job.name = std::string("bench-") + AlgorithmName(algorithm);
  job.input_dir = dataset.dir;
  job.join = plan.join;
  job.groupby = plan.groupby;
  job.groupby_connector = plan.connector;
  job.storage = plan.storage;
  JobResult result;
  Status s = runtime.Run(program, job, &result);
  if (!s.ok()) {
    outcome.ok = false;
    outcome.fail_reason = s.ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.supersteps = result.supersteps;
  outcome.load_seconds = result.load_sim_seconds;
  outcome.total_seconds = result.total_sim_seconds;
  outcome.avg_iteration_seconds = result.avg_iteration_sim_seconds;
  outcome.wall_seconds = result.wall_seconds;

  // PREGELIX_METRICS_JSON=<file>: dump the registry after every Pregelix run
  // (runs share the process-wide registry, so the file accumulates the whole
  // bench binary's counters; the last write wins and is cumulative).
  const char* json_path = getenv("PREGELIX_METRICS_JSON");
  const char* prom_path = getenv("PREGELIX_METRICS_PROM");
  if (json_path != nullptr || prom_path != nullptr) {
    cluster.PublishMetrics();
  }
  if (json_path != nullptr) {
    Status ms = cluster.registry()->ExportJson(json_path);
    if (!ms.ok()) {
      PLOG(Warn) << "metrics json write failed: " << ms.ToString();
    }
  }
  // PREGELIX_METRICS_PROM=<file>: same registry, Prometheus text exposition
  // (node_exporter textfile-collector friendly).
  if (prom_path != nullptr) {
    Status ms = cluster.registry()->ExportPrometheus(prom_path);
    if (!ms.ok()) {
      PLOG(Warn) << "metrics prom write failed: " << ms.ToString();
    }
  }
  return outcome;
}

Outcome RunBaseline(Env& env, const Dataset& dataset, Algorithm algorithm,
                    const ProcessCentricEngine::Options& options,
                    int workers, size_t worker_ram_bytes,
                    int pagerank_iterations) {
  Outcome outcome;
  ProgramHolder holder;
  PregelProgram* program = holder.Make(algorithm, pagerank_iterations);
  ProcessCentricEngine engine(options, workers, worker_ram_bytes);
  ProcessCentricEngine::Result result;
  Status s = engine.Run(env.dfs(), dataset.dir, program,
                        /*max_supersteps=*/200, &result);
  if (!s.ok()) {
    outcome.ok = false;
    outcome.fail_reason = s.ToString();
    return outcome;
  }
  outcome.ok = result.succeeded;
  outcome.fail_reason = result.failure;
  outcome.supersteps = result.supersteps;
  outcome.load_seconds = result.load_sim_seconds;
  outcome.total_seconds = result.total_sim_seconds;
  outcome.avg_iteration_seconds = result.avg_iteration_sim_seconds;
  return outcome;
}

std::vector<SweepRow> RunSystemSweep(Env& env,
                                     const std::vector<Dataset>& datasets,
                                     Algorithm algorithm, int workers,
                                     size_t worker_ram_bytes,
                                     int pagerank_iterations) {
  std::vector<SweepRow> rows;
  const uint64_t aggregate_ram =
      static_cast<uint64_t>(workers) * worker_ram_bytes;
  for (const Dataset& dataset : datasets) {
    SweepRow row;
    row.dataset = dataset.name;
    row.ratio = dataset.Ratio(aggregate_ram);
    row.systems.emplace_back(
        "Pregelix",
        RunPregelix(env, dataset, algorithm,
                    env.Cluster(workers, worker_ram_bytes), PregelixPlan{},
                    pagerank_iterations));
    for (const auto& options :
         {GiraphMemOptions(), GiraphOocOptions(), GraphLabOptions(),
          GraphXOptions(), HamaOptions()}) {
      row.systems.emplace_back(
          options.name,
          RunBaseline(env, dataset, algorithm, options, workers,
                      worker_ram_bytes, pagerank_iterations));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::cout << "\n================================================================\n"
            << experiment << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Expected shape: " << expectation << "\n"
            << "(times are simulated seconds from the DESIGN.md cost model)\n"
            << "================================================================\n";
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  // Pad to width - 1 and always add a separator, so a cell as wide as its
  // column cannot run into the next one.
  for (const std::string& cell : cells) {
    printf("%-*s ", width - 1, cell.c_str());
  }
  printf("\n");
  fflush(stdout);
}

std::string Seconds(double s) {
  char buf[32];
  if (s >= 100) {
    snprintf(buf, sizeof(buf), "%.0f", s);
  } else if (s >= 1) {
    snprintf(buf, sizeof(buf), "%.2f", s);
  } else {
    snprintf(buf, sizeof(buf), "%.3f", s);
  }
  return buf;
}

std::string SecondsOrFail(const Outcome& outcome) {
  return outcome.ok ? Seconds(outcome.total_seconds) : "FAIL";
}

std::string Ratio3(double r) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.3f", r);
  return buf;
}

}  // namespace bench
}  // namespace pregelix
