// Genome assembly path merging: the Genomix use case of paper Section 6.
//
// Genomix builds a De Bruijn graph from genome reads and then repeatedly
// (a) cleans noise patterns and (b) merges unbranched paths until long
// contiguous sequences ("contigs") remain. This stresses exactly the
// features the paper calls out:
//   - graph mutations (vertices are removed as paths merge),
//   - drastically growing vertex values (merged sequences) -> LSM storage,
//   - chains of compatible jobs -> job pipelining (Section 5.6).
//
// The synthetic graph is a set of disjoint simple paths (unbranched runs of
// the De Bruijn graph) plus noise "tips" hanging off them. Two pipelined
// jobs run: tip removal, then head-token path contraction — each round the
// current head of every path hands its sequence to its successor and
// removes itself, so each path collapses into one long contig.
//
//   $ ./genome_paths

#include <cstdio>
#include <sstream>

#include "common/random.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"
#include "pregel/typed.h"

using namespace pregelix;

namespace {

// Vertex values are DNA fragments with an optional 1-char marker prefix:
//   '!' = noise tip (removed by cleaning), 'H' = current head of its path.
constexpr char kTipMark = '!';
constexpr char kHeadMark = 'H';

bool HasMark(const std::string& v, char mark) {
  return !v.empty() && v[0] == mark;
}
std::string StripMark(const std::string& v) {
  return (HasMark(v, kTipMark) || HasMark(v, kHeadMark)) ? v.substr(1) : v;
}

/// Job 1 — tip removal (graph cleaning, simplified from the Genomix
/// pattern set [45]): marked noise vertices delete themselves.
class TipRemovalProgram
    : public TypedVertexProgram<std::string, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<std::string, Empty, int64_t>;

  explicit TipRemovalProgram(const std::vector<std::string>* fragments)
      : fragments_(fragments) {}

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    if (vertex.superstep() == 1 && HasMark(vertex.value(), kTipMark)) {
      vertex.RemoveVertex(vertex.id());
    }
    vertex.VoteToHalt();
  }

  bool mutates_graph() const override { return true; }

  std::string InitialValue(int64_t vid,
                           const std::vector<int64_t>&) const override {
    return (*fragments_)[vid];
  }
  std::string FormatValue(int64_t, const std::string& v) const override {
    return StripMark(v);
  }

 private:
  const std::vector<std::string>* fragments_;
};

/// Job 2 — path merging by head contraction: only the head of a path (a
/// vertex with no incoming edges, tracked by the 'H' marker) merges. It
/// hands its accumulated sequence to its unique successor and removes
/// itself; the successor prepends the sequence and becomes the new head.
/// Terminates when every path is a single vertex (the tail, out-degree 0).
class PathMergeProgram
    : public TypedVertexProgram<std::string, Empty, std::string> {
 public:
  using Adapter = TypedProgramAdapter<std::string, Empty, std::string>;

  void Compute(VertexT& vertex,
               MessageIterator<std::string>& messages) override {
    while (messages.HasNext()) {
      // A merge hand-off: prepend and become the head.
      const std::string handed = messages.Next();
      vertex.set_value(std::string(1, kHeadMark) + handed +
                       StripMark(vertex.value()));
    }
    if (HasMark(vertex.value(), kHeadMark) && vertex.edges().size() == 1) {
      vertex.SendMessage(vertex.edges()[0].dst, StripMark(vertex.value()));
      vertex.RemoveVertex(vertex.id());
      return;  // merged away; no halt vote
    }
    vertex.VoteToHalt();
  }

  bool mutates_graph() const override { return true; }

  std::string FormatValue(int64_t, const std::string& v) const override {
    return std::to_string(StripMark(v).size());  // contig length
  }
};

constexpr const char* kBases = "ACGT";

}  // namespace

int main() {
  TempDir scratch("genome");
  DistributedFileSystem dfs(scratch.Sub("dfs"));
  ClusterConfig config;
  config.num_workers = 4;
  config.worker_ram_bytes = 4u << 20;
  config.temp_root = scratch.Sub("cluster");
  SimulatedCluster cluster(config);

  // 40 disjoint simple paths of 50 nodes (unbranched De Bruijn runs) plus
  // 200 noise tips, each tip pointing into a random path node.
  Random rnd(11);
  InMemoryGraph graph;
  const int kPaths = 40, kPathLen = 50, kTips = 200;
  const int64_t n = kPaths * kPathLen;
  graph.adj.resize(n + kTips);
  std::vector<std::string> fragment(n + kTips);
  for (int64_t v = 0; v < n + kTips; ++v) {
    for (int b = 0; b < 8; ++b) fragment[v] += kBases[rnd.Uniform(4)];
  }
  for (int p = 0; p < kPaths; ++p) {
    for (int i = 0; i < kPathLen - 1; ++i) {
      const int64_t v = static_cast<int64_t>(p) * kPathLen + i;
      graph.adj[v].push_back(v + 1);
    }
    fragment[static_cast<int64_t>(p) * kPathLen].insert(0, 1, kHeadMark);
  }
  for (int t = 0; t < kTips; ++t) {
    const int64_t tip = n + t;
    graph.adj[tip].push_back(static_cast<int64_t>(rnd.Uniform(n)));
    fragment[tip].insert(0, 1, kTipMark);
  }
  PREGELIX_CHECK_OK(WriteGraph(dfs, "debruijn/graph", graph, 4));
  printf("de-bruijn-like graph: %lld nodes (%d paths x %d + %d tips)\n",
         static_cast<long long>(graph.num_vertices()), kPaths, kPathLen,
         kTips);

  TipRemovalProgram tip_removal(&fragment);
  TipRemovalProgram::Adapter tip_adapter(&tip_removal);
  PathMergeProgram path_merge;
  PathMergeProgram::Adapter merge_adapter(&path_merge);

  // Both jobs use LSM storage (drastic value-size changes + heavy
  // mutations, paper Section 5.2) and run as one pipeline: no dump/re-load
  // between the cleaning job and the merging job (paper Section 5.6).
  PregelixJobConfig clean;
  clean.name = "genome";
  clean.input_dir = "debruijn/graph";
  clean.storage = VertexStorage::kLsmBTree;
  clean.join = JoinStrategy::kLeftOuter;
  PregelixJobConfig merge = clean;
  merge.output_dir = "debruijn/contigs";
  merge.max_supersteps = 400;

  PregelixRuntime runtime(&cluster, &dfs);
  std::vector<std::pair<PregelProgram*, PregelixJobConfig>> jobs = {
      {&tip_adapter, clean}, {&merge_adapter, merge}};
  std::vector<JobResult> results;
  PREGELIX_CHECK_OK(runtime.RunPipeline(jobs, &results));

  printf("\npipeline of 2 compatible jobs (no HDFS round trip between):\n");
  printf("  tip removal : %lld supersteps, %lld vertices remain "
         "(expected %lld)\n",
         static_cast<long long>(results[0].supersteps),
         static_cast<long long>(results[0].final_gs.num_vertices),
         static_cast<long long>(n));
  printf("  path merging: %lld supersteps, %lld contigs remain "
         "(expected %d)\n",
         static_cast<long long>(results[1].supersteps),
         static_cast<long long>(results[1].final_gs.num_vertices), kPaths);

  // Longest contig from the dump.
  std::vector<std::string> parts;
  PREGELIX_CHECK_OK(dfs.List("debruijn/contigs", &parts));
  int64_t longest = 0, contigs = 0;
  for (const std::string& part : parts) {
    std::string contents;
    PREGELIX_CHECK_OK(dfs.Read("debruijn/contigs/" + part, &contents));
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid, length;
      fields >> vid >> length;
      longest = std::max(longest, length);
      ++contigs;
    }
  }
  printf("  longest contig: %lld bases across %lld contigs "
         "(fragments were 8 bases; expected %d-base contigs)\n",
         static_cast<long long>(longest), static_cast<long long>(contigs),
         kPathLen * 8);
  return 0;
}
