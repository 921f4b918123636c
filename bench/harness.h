#ifndef PREGELIX_BENCH_HARNESS_H_
#define PREGELIX_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/process_centric.h"
#include "common/config.h"
#include "common/temp_dir.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "pregel/job_config.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace bench {

/// One generated dataset on the experiment DFS.
struct Dataset {
  std::string name;
  std::string dir;
  GraphStats stats;
  /// RNG seed the generator/sampler ran with. Reported in the metrics JSON
  /// (pregelix.bench.dataset_seed{dataset=...}) so a failing run can be
  /// reproduced from its artifact alone.
  uint64_t seed = 0;

  /// The x-axis of Figures 10/11/14/15: dataset size over aggregate RAM.
  double Ratio(size_t aggregate_ram_bytes) const {
    return static_cast<double>(stats.size_bytes) /
           static_cast<double>(aggregate_ram_bytes);
  }
};

/// Experiment environment: scratch space, DFS, dataset cache, cluster
/// factory. Every bench binary creates one Env; datasets are generated
/// deterministically (seeded) so runs are reproducible.
class Env {
 public:
  Env();

  DistributedFileSystem& dfs() { return *dfs_; }

  /// Directed power-law graph (Webmap stand-in, Table 3).
  Dataset Webmap(const std::string& name, int64_t vertices,
                 double avg_degree = 8.0);
  /// Undirected near-constant-degree graph (BTC stand-in, Table 4).
  Dataset Btc(const std::string& name, int64_t vertices,
              double avg_degree = 8.94);
  /// Scale-up by copy + renumber (how the paper grew BTC).
  Dataset ScaleUp(const Dataset& base, const std::string& name, int factor);
  /// Random-walk down-sample (how the paper shrank Webmap).
  Dataset Sample(const Dataset& base, const std::string& name,
                 int64_t vertices);

  /// A fresh simulated cluster config rooted in this Env's scratch.
  ClusterConfig Cluster(int workers, size_t worker_ram_bytes);

 private:
  TempDir dir_;
  std::unique_ptr<DistributedFileSystem> dfs_;
  int cluster_counter_ = 0;
};

enum class Algorithm { kPageRank, kSssp, kCc };

const char* AlgorithmName(Algorithm algorithm);

/// One comparison data point.
struct Outcome {
  bool ok = false;
  std::string fail_reason;
  int64_t supersteps = 0;
  double load_seconds = 0;
  double total_seconds = 0;     ///< simulated: load + supersteps (+ dump)
  double avg_iteration_seconds = 0;
  double wall_seconds = 0;
};

/// Physical plan knobs for a Pregelix run (defaults = the paper's default
/// plan: full outer join, sort group-by, unmerged connector, B-tree; the
/// figures do not run the dense group-by extension).
struct PregelixPlan {
  JoinStrategy join = JoinStrategy::kFullOuter;
  GroupByStrategy groupby = GroupByStrategy::kSort;
  GroupByConnector connector = GroupByConnector::kUnmerged;
  VertexStorage storage = VertexStorage::kBTree;
};

/// Runs one algorithm on Pregelix. `pagerank_iterations` bounds PageRank;
/// SSSP/CC run to convergence.
Outcome RunPregelix(Env& env, const Dataset& dataset, Algorithm algorithm,
                    const ClusterConfig& cluster_config,
                    const PregelixPlan& plan = {},
                    int pagerank_iterations = 5);

/// Runs one algorithm on a process-centric baseline engine.
Outcome RunBaseline(Env& env, const Dataset& dataset, Algorithm algorithm,
                    const ProcessCentricEngine::Options& options,
                    int workers, size_t worker_ram_bytes,
                    int pagerank_iterations = 5);

/// One row of a Figure 10/11-style sweep: one dataset, all six systems.
struct SweepRow {
  std::string dataset;
  double ratio = 0;
  std::vector<std::pair<std::string, Outcome>> systems;  ///< ordered
};

/// Runs {Pregelix(default plan), Giraph-mem, Giraph-ooc, GraphLab, GraphX,
/// Hama} over each dataset — the system lineup of Figures 10 and 11.
std::vector<SweepRow> RunSystemSweep(Env& env,
                                     const std::vector<Dataset>& datasets,
                                     Algorithm algorithm, int workers,
                                     size_t worker_ram_bytes,
                                     int pagerank_iterations = 5);

// --- Table formatting -------------------------------------------------------

/// Prints a figure/table banner with the paper reference.
void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

/// Fixed-width row helpers. Cells are padded to `width` and separated by at
/// least one space.
void PrintRow(const std::vector<std::string>& cells, int width = 14);
std::string Seconds(double s);
std::string SecondsOrFail(const Outcome& outcome);
std::string Ratio3(double r);

}  // namespace bench
}  // namespace pregelix

#endif  // PREGELIX_BENCH_HARNESS_H_
