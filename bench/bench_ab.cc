// One A/B harness: the same jobs under several arms, all in one JSON.
//
// Experiments: SSSP on BTC, PageRank on Webmap and CC on BTC, each on a
// 26k-vertex graph (6k with --fast) and 2 workers x 1 MB. Arms, in order:
//   * the four static join x group-by plans (unmerged connector, B-tree);
//   * all-auto: every knob kAuto, the feedback-driven plan optimizer
//     (DESIGN.md §17, the cost-based optimizer the paper's Section 9 leaves
//     as future work);
//   * fullouter/sort again (`"repeat": true`): a seeded run must repeat its
//     supersteps and simtime.
// The worker time ledger (DESIGN.md §20) is reset before each arm, so an
// arm's unattributed residue describes that arm alone.
//
//   bench_ab [--fast] [out.json]     (default ./BENCH_ab.json)
//
// The binary gates nothing: the artifact is gated by
// tools/check_bench_ab.py, and tools/bench_smoke.sh runs both in --fast
// mode.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/time_ledger.h"
#include "pregel/plan_optimizer.h"

namespace pregelix {
namespace bench {
namespace {

constexpr int kWorkers = 2;
constexpr size_t kWorkerRam = 1024 * 1024;

struct Arm {
  std::string name;
  PregelixPlan plan;
  bool repeat = false;
};

std::vector<Arm> Arms() {
  std::vector<Arm> arms;
  for (JoinStrategy join :
       {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
    for (GroupByStrategy groupby :
         {GroupByStrategy::kSort, GroupByStrategy::kHashSort}) {
      PregelixPlan plan;
      plan.join = join;
      plan.groupby = groupby;
      arms.push_back({std::string(JoinStrategyName(join)) + "/" +
                          GroupByStrategyName(groupby),
                      plan});
    }
  }
  PregelixPlan all_auto;
  all_auto.join = JoinStrategy::kAuto;
  all_auto.groupby = GroupByStrategy::kAuto;
  all_auto.connector = GroupByConnector::kAuto;
  all_auto.storage = VertexStorage::kAuto;
  arms.push_back({"auto", all_auto});
  arms.push_back({"fullouter/sort", PregelixPlan{}, /*repeat=*/true});
  return arms;
}

struct ArmResult {
  const Arm* arm;
  Outcome outcome;
  int64_t unattributed_ns = 0;
};

struct Experiment {
  std::string algorithm;  ///< lowercase JSON key: sssp, pagerank, cc
  const Dataset* dataset;
  std::vector<ArmResult> arms;
};

bool RunExperiment(Env& env, const std::vector<Arm>& arms, Experiment* e,
                   Algorithm algorithm) {
  for (const Arm& arm : arms) {
    TimeLedger::Global().Reset();
    ArmResult r{&arm, RunPregelix(env, *e->dataset, algorithm,
                                  env.Cluster(kWorkers, kWorkerRam), arm.plan),
                0};
    if (!r.outcome.ok) {
      fprintf(stderr, "bench_ab: %s/%s %s failed: %s\n", e->algorithm.c_str(),
              e->dataset->name.c_str(), arm.name.c_str(),
              r.outcome.fail_reason.c_str());
      return false;
    }
    r.unattributed_ns = TimeLedger::Global().TakeSnapshot().unattributed_ns;
    PrintRow({e->algorithm + " " + e->dataset->name,
              arm.name + (arm.repeat ? " (repeat)" : ""),
              Seconds(r.outcome.total_seconds),
              Seconds(r.outcome.wall_seconds),
              std::to_string(r.outcome.supersteps),
              std::to_string(r.unattributed_ns)},
             18);
    e->arms.push_back(r);
  }
  return true;
}

bool WriteJson(const std::string& path, bool fast,
               const std::vector<Experiment>& experiments) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "bench_ab: cannot write %s\n", path.c_str());
    return false;
  }
  fprintf(f, "{\n  \"name\": \"bench_ab\",\n  \"mode\": \"%s\",\n",
          fast ? "fast" : "full");
  fprintf(f, "  \"workers\": %d,\n  \"worker_ram_bytes\": %zu,\n", kWorkers,
          kWorkerRam);
  fprintf(f, "  \"experiments\": [\n");
  for (size_t i = 0; i < experiments.size(); ++i) {
    const Experiment& e = experiments[i];
    fprintf(f, "    {\n");
    fprintf(f, "      \"algorithm\": \"%s\",\n", e.algorithm.c_str());
    fprintf(f, "      \"dataset\": \"%s\",\n", e.dataset->name.c_str());
    fprintf(f, "      \"vertices\": %lld,\n",
            static_cast<long long>(e.dataset->stats.num_vertices));
    fprintf(f, "      \"arms\": [\n");
    for (size_t j = 0; j < e.arms.size(); ++j) {
      const ArmResult& r = e.arms[j];
      fprintf(f,
              "        {\"name\": \"%s\", \"repeat\": %s, "
              "\"sim_seconds\": %.6f, \"wall_seconds\": %.6f, "
              "\"supersteps\": %lld, \"unattributed_ns\": %lld}%s\n",
              r.arm->name.c_str(), r.arm->repeat ? "true" : "false",
              r.outcome.total_seconds, r.outcome.wall_seconds,
              static_cast<long long>(r.outcome.supersteps),
              static_cast<long long>(r.unattributed_ns),
              j + 1 < e.arms.size() ? "," : "");
    }
    fprintf(f, "      ]\n    }%s\n", i + 1 < experiments.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  return true;
}

int Run(bool fast, const std::string& out_path) {
  PrintBanner(
      "A/B: static plans vs the plan optimizer, and a repeated run",
      "Bu et al., VLDB 2014, Section 9 (future work: cost-based "
      "optimization); this repository's optimizer and time ledger",
      "auto tracks the best static join x group-by plan; a repeated run "
      "keeps its simtime, and no arm leaves unattributed ledger ns (gated "
      "by tools/check_bench_ab.py)");

  Env env;
  const int64_t vertices = fast ? 6000 : 26000;
  const Dataset btc = env.Btc("BTC-1.0", vertices, 8.94);
  const Dataset web = env.Webmap("Web-1.0", vertices, 8.0);

  PrintRow({"experiment", "arm", "sim s", "wall s", "supersteps",
            "unattributed ns"},
           18);
  const std::vector<Arm> arms = Arms();
  std::vector<Experiment> experiments;
  struct Case {
    const Dataset* dataset;
    Algorithm algorithm;
  };
  for (const Case& c : {Case{&btc, Algorithm::kSssp},
                        Case{&web, Algorithm::kPageRank},
                        Case{&btc, Algorithm::kCc}}) {
    Experiment e;
    e.algorithm = AlgorithmName(c.algorithm);
    for (char& ch : e.algorithm) ch = static_cast<char>(std::tolower(ch));
    e.dataset = c.dataset;
    if (!RunExperiment(env, arms, &e, c.algorithm)) return 1;
    experiments.push_back(std::move(e));
  }
  if (!WriteJson(out_path, fast, experiments)) return 1;
  printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pregelix

int main(int argc, char** argv) {
  bool fast = false;
  std::string out = "BENCH_ab.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else {
      out = argv[i];
    }
  }
  return pregelix::bench::Run(fast, out);
}
