// Reproduces Figure 14: index full outer join vs index left outer join
// (plan flexibility), average iteration time on the 8-machine-scale cluster.
//
//   (a) SSSP on BTC: the LEFT OUTER join plan wins by a wide margin
//       (messages are sparse; probing the live-vertex index avoids scanning
//       every vertex every superstep).
//   (b) PageRank on Webmap: the FULL OUTER join plan wins (every vertex is
//       live; per-key probes from the root are wasted work versus one
//       sequential merge scan).
//   (c) CC on BTC: starts message-intensive, ends sparse — the two plans
//       come out close.

#include <vector>

#include "bench/harness.h"

namespace pregelix {
namespace bench {
namespace {

constexpr int kWorkers = 2;  // the paper's small (8-machine) cluster
constexpr size_t kWorkerRam = 1024 * 1024;

void RunCase(Env& env, const char* title,
             const std::vector<Dataset>& datasets, Algorithm algorithm) {
  printf("\n--- %s ---\n", title);
  PrintRow({"dataset", "size/RAM", "LeftOuterJoin", "FullOuterJoin",
            "LOJ/FOJ", "Auto*"});
  for (const Dataset& dataset : datasets) {
    PregelixPlan loj;
    loj.join = JoinStrategy::kLeftOuter;
    PregelixPlan foj;
    foj.join = JoinStrategy::kFullOuter;
    PregelixPlan autojoin;
    autojoin.join = JoinStrategy::kAuto;
    Outcome left = RunPregelix(env, dataset, algorithm,
                               env.Cluster(kWorkers, kWorkerRam), loj);
    Outcome full = RunPregelix(env, dataset, algorithm,
                               env.Cluster(kWorkers, kWorkerRam), foj);
    Outcome chosen = RunPregelix(env, dataset, algorithm,
                                 env.Cluster(kWorkers, kWorkerRam), autojoin);
    char ratio[32];
    snprintf(ratio, sizeof(ratio), "%.2fx",
             left.avg_iteration_seconds / full.avg_iteration_seconds);
    PrintRow({dataset.name,
              Ratio3(dataset.Ratio(static_cast<uint64_t>(kWorkers) *
                                   kWorkerRam)),
              Seconds(left.avg_iteration_seconds),
              Seconds(full.avg_iteration_seconds), ratio,
              Seconds(chosen.avg_iteration_seconds)});
  }
}

void Run() {
  Env env;
  PrintBanner(
      "Figure 14: index left outer join vs index full outer join",
      "Bu et al., VLDB 2014, Figure 14 (a)(b)(c)",
      "LOJ much faster for SSSP (sparse messages); FOJ faster for PageRank "
      "(all vertices live); the two are close for CC");

  std::vector<Dataset> btc, web;
  for (const auto& [suffix, vertices] :
       std::vector<std::pair<std::string, int64_t>>{
           {"0.3", 13000}, {"0.6", 26000}, {"0.9", 39000}, {"1.2", 52000}}) {
    btc.push_back(env.Btc("BTC-" + suffix, vertices, 8.94));
    web.push_back(env.Webmap("Web-" + suffix, vertices, 8.0));
  }
  RunCase(env, "(a) SSSP on BTC samples (expect LOJ <<< FOJ)", btc,
          Algorithm::kSssp);
  RunCase(env, "(b) PageRank on Webmap samples (expect FOJ < LOJ)", web,
          Algorithm::kPageRank);
  RunCase(env, "(c) CC on BTC samples (expect LOJ ~ FOJ)", btc,
          Algorithm::kCc);
  printf("\n* Auto is this repository's extension toward the paper's "
         "future-work optimizer (Section 9): with --join=auto the "
         "feedback-driven plan optimizer re-picks the join per superstep "
         "from the previous superstep's statistics, tracking whichever "
         "static plan is better for the phase the algorithm is in.\n");
}

}  // namespace
}  // namespace bench
}  // namespace pregelix

int main() {
  pregelix::bench::Run();
  return 0;
}
