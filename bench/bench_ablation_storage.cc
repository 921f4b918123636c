// Ablation: B-tree versus LSM B-tree vertex storage (paper Section 5.2).
//
// Paper guidance: "A B-tree index performs well on jobs that frequently
// update vertex data in-place, e.g., PageRank. An LSM B-tree index performs
// well when the size of vertex data is changed drastically from superstep
// to superstep, or when the algorithm performs frequent graph mutations,
// e.g., the path merging algorithm in genome assemblers."
//
//   (a) PageRank (fixed-size in-place updates)      -> expect B-tree wins
//   (b) a path-merging-style churn workload whose vertex values grow
//       drastically each superstep and which adds/removes vertices
//       (the genome assembler pattern)              -> expect LSM wins

#include <string>
#include <vector>

#include "bench/harness.h"
#include "dataflow/cluster.h"
#include "pregel/typed.h"

namespace pregelix {
namespace bench {
namespace {

constexpr int kWorkers = 2;
constexpr size_t kWorkerRam = 1024 * 1024;

/// Genome-assembler-like churn: every superstep each live vertex doubles
/// its value payload (merged path sequence), removes one neighbor vertex
/// from the graph and re-adds it under a shifted id — constant structural
/// churn plus drastic value growth.
class PathChurnProgram : public TypedVertexProgram<std::string, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<std::string, Empty, int64_t>;

  explicit PathChurnProgram(int rounds) : rounds_(rounds) {}

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    if (vertex.superstep() == 1) {
      vertex.set_value(std::string(16, 'A'));
    }
    if (vertex.superstep() <= rounds_) {
      // Drastic size change: the "merged path" doubles.
      std::string merged = vertex.value() + vertex.value();
      vertex.set_value(merged);
      // Structural churn on original vertices only.
      if (vertex.id() < 100000 && vertex.id() % 7 == 0 &&
          !vertex.edges().empty()) {
        vertex.RemoveVertex(vertex.edges()[0].dst);
        vertex.AddVertex(vertex.id() + 1000000 * vertex.superstep(),
                         std::string(8, 'T'));
      }
      // Keep the wave alive.
      if (!vertex.edges().empty()) {
        vertex.SendMessage(vertex.edges()[0].dst, vertex.id());
      }
    }
    vertex.VoteToHalt();
  }

  bool mutates_graph() const override { return true; }

  std::string FormatValue(int64_t, const std::string& value) const override {
    return std::to_string(value.size());
  }

 private:
  int rounds_;
};

double RunChurn(Env& env, const Dataset& dataset, VertexStorage storage) {
  SimulatedCluster cluster(env.Cluster(kWorkers, kWorkerRam));
  PregelixRuntime runtime(&cluster, &env.dfs());
  PathChurnProgram program(5);
  PathChurnProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "churn";
  job.input_dir = dataset.dir;
  job.storage = storage;
  job.join = JoinStrategy::kLeftOuter;
  JobResult result;
  Status s = runtime.Run(&adapter, job, &result);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  return result.supersteps_sim_seconds;
}

void Run() {
  Env env;
  PrintBanner("Ablation: B-tree vs LSM B-tree vertex storage",
              "Bu et al., VLDB 2014, Sections 4 and 5.2",
              "B-tree wins for in-place updates (PageRank); LSM wins under "
              "drastic size changes + graph mutations (genome path merging)");

  Dataset web = env.Webmap("st-web", 15000, 8.0);
  printf("\n--- (a) PageRank (stable-size in-place updates) ---\n");
  PrintRow({"storage", "total", "avg-iteration"}, 18);
  for (const auto& [name, storage] :
       std::vector<std::pair<std::string, VertexStorage>>{
           {"B-tree", VertexStorage::kBTree},
           {"LSM B-tree", VertexStorage::kLsmBTree}}) {
    PregelixPlan plan;
    plan.storage = storage;
    Outcome outcome = RunPregelix(env, web, Algorithm::kPageRank,
                                  env.Cluster(kWorkers, kWorkerRam), plan);
    PrintRow({name, Seconds(outcome.total_seconds),
              Seconds(outcome.avg_iteration_seconds)},
             18);
  }

  Dataset churn = env.Btc("st-churn", 8000, 6.0);
  printf("\n--- (b) path-merging churn (values double each superstep, "
         "vertices added/removed) ---\n");
  PrintRow({"storage", "superstep-total"}, 18);
  const double btree = RunChurn(env, churn, VertexStorage::kBTree);
  const double lsm = RunChurn(env, churn, VertexStorage::kLsmBTree);
  PrintRow({"B-tree", Seconds(btree)}, 18);
  PrintRow({"LSM B-tree", Seconds(lsm)}, 18);
  char ratio[32];
  snprintf(ratio, sizeof(ratio), "%.2fx", btree / lsm);
  printf("LSM advantage under churn: %s\n", ratio);
}

}  // namespace
}  // namespace bench
}  // namespace pregelix

int main() {
  pregelix::bench::Run();
  return 0;
}
