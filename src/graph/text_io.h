#ifndef PREGELIX_GRAPH_TEXT_IO_H_
#define PREGELIX_GRAPH_TEXT_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dfs/dfs.h"

namespace pregelix {

/// Adjacency text format (the analog of the paper's SimpleTextInputFormat):
/// one vertex per line, whitespace-separated:
///
///   <vid> <dst0> <dst1> ... <dstK>
///
/// Graph directories on the DFS contain `part-<i>` files; a loader streams
/// every part. Edge values are implicit (1.0) — the built-in algorithms that
/// need weights derive deterministic ones from the endpoint ids.

/// Callback per vertex line.
using VertexLineFn =
    std::function<Status(int64_t vid, const std::vector<int64_t>& dests)>;

/// Streams every `part-*` file of `dir` through `fn`, in part order.
Status ScanGraphDir(const DistributedFileSystem& dfs, const std::string& dir,
                    const VertexLineFn& fn);

/// Streams one part file.
Status ScanGraphPart(const DistributedFileSystem& dfs,
                     const std::string& part_path, const VertexLineFn& fn);

/// Formats one adjacency line (no trailing newline handling — appends '\n').
void AppendVertexLine(int64_t vid, const std::vector<int64_t>& dests,
                      std::string* out);

/// Simple in-memory adjacency list for reference algorithms and samplers;
/// vertex ids must be dense [0, n).
struct InMemoryGraph {
  std::vector<std::vector<int64_t>> adj;

  int64_t num_vertices() const { return static_cast<int64_t>(adj.size()); }
  uint64_t num_edges() const {
    uint64_t e = 0;
    for (const auto& v : adj) e += v.size();
    return e;
  }
  double avg_degree() const {
    return adj.empty() ? 0.0
                       : static_cast<double>(num_edges()) /
                             static_cast<double>(adj.size());
  }
};

/// Loads a graph directory into memory (test/reference scale only). Returns
/// Corruption for a negative id, and for an id not smaller than the number
/// of ids the input names (lines plus destinations), before allocating
/// anything sized by an id.
Status LoadGraph(const DistributedFileSystem& dfs, const std::string& dir,
                 InMemoryGraph* graph);

/// Writes an in-memory graph out as `num_parts` part files (vertices are
/// hash-partitioned by vid like the runtime does).
Status WriteGraph(DistributedFileSystem& dfs, const std::string& dir,
                  const InMemoryGraph& graph, int num_parts);

}  // namespace pregelix

#endif  // PREGELIX_GRAPH_TEXT_IO_H_
