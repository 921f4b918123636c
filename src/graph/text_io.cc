#include "graph/text_io.h"

#include <algorithm>
#include <charconv>

#include "common/hash.h"
#include "common/logging.h"

namespace pregelix {

namespace {

/// Parses one adjacency line in place.
Status ParseLine(const char* begin, const char* end, int64_t* vid,
                 std::vector<int64_t>* dests) {
  dests->clear();
  const char* p = begin;
  bool first = true;
  while (p < end) {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
    if (p >= end) break;
    int64_t value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc()) {
      return Status::Corruption("bad adjacency line token");
    }
    if (first) {
      *vid = value;
      first = false;
    } else {
      dests->push_back(value);
    }
    p = next;
  }
  if (first) return Status::Corruption("empty adjacency line");
  return Status::OK();
}

}  // namespace

Status ScanGraphPart(const DistributedFileSystem& dfs,
                     const std::string& part_path, const VertexLineFn& fn) {
  std::string contents;
  PREGELIX_RETURN_NOT_OK(dfs.Read(part_path, &contents));
  const char* p = contents.data();
  const char* end = p + contents.size();
  std::vector<int64_t> dests;
  while (p < end) {
    const char* line_end = p;
    while (line_end < end && *line_end != '\n') ++line_end;
    if (line_end > p) {
      int64_t vid = 0;
      PREGELIX_RETURN_NOT_OK(ParseLine(p, line_end, &vid, &dests));
      PREGELIX_RETURN_NOT_OK(fn(vid, dests));
    }
    p = line_end + 1;
  }
  return Status::OK();
}

Status ScanGraphDir(const DistributedFileSystem& dfs, const std::string& dir,
                    const VertexLineFn& fn) {
  std::vector<std::string> names;
  PREGELIX_RETURN_NOT_OK(dfs.List(dir, &names));
  for (const std::string& name : names) {
    if (name.rfind("part-", 0) != 0) continue;
    PREGELIX_RETURN_NOT_OK(ScanGraphPart(dfs, dir + "/" + name, fn));
  }
  return Status::OK();
}

void AppendVertexLine(int64_t vid, const std::vector<int64_t>& dests,
                      std::string* out) {
  out->append(std::to_string(vid));
  for (int64_t d : dests) {
    out->push_back(' ');
    out->append(std::to_string(d));
  }
  out->push_back('\n');
}

Status LoadGraph(const DistributedFileSystem& dfs, const std::string& dir,
                 InMemoryGraph* graph) {
  graph->adj.clear();
  // Nothing is sized by an id before every id is known to be in range. A
  // dense 0..N-1 graph names each of its N ids at least once, so no id
  // reaches the number of ids the input holds (lines plus destinations).
  std::vector<std::pair<int64_t, std::vector<int64_t>>> lines;
  uint64_t ids = 0;
  int64_t max_id = -1;
  PREGELIX_RETURN_NOT_OK(ScanGraphDir(
      dfs, dir, [&](int64_t vid, const std::vector<int64_t>& dests) {
        ids += 1 + dests.size();
        int64_t min_id = vid;
        max_id = std::max(max_id, vid);
        for (int64_t d : dests) {
          min_id = std::min(min_id, d);
          max_id = std::max(max_id, d);
        }
        if (min_id < 0) {
          return Status::Corruption("negative vertex id " +
                                    std::to_string(min_id));
        }
        lines.emplace_back(vid, dests);
        return Status::OK();
      }));
  if (max_id >= 0 && static_cast<uint64_t>(max_id) >= ids) {
    return Status::Corruption("vertex id " + std::to_string(max_id) +
                              " out of range: the input names " +
                              std::to_string(ids) + " ids");
  }
  // A destination without a line of its own is a vertex with no out-edges.
  graph->adj.resize(static_cast<size_t>(max_id + 1));
  for (auto& [vid, dests] : lines) graph->adj[vid] = std::move(dests);
  return Status::OK();
}

Status WriteGraph(DistributedFileSystem& dfs, const std::string& dir,
                  const InMemoryGraph& graph, int num_parts) {
  PREGELIX_CHECK(num_parts > 0);
  std::vector<std::unique_ptr<WritableFile>> parts(num_parts);
  for (int i = 0; i < num_parts; ++i) {
    PREGELIX_RETURN_NOT_OK(dfs.OpenForWrite(
        dir + "/part-" + std::to_string(i), &parts[i]));
  }
  std::string line;
  for (int64_t vid = 0; vid < graph.num_vertices(); ++vid) {
    line.clear();
    AppendVertexLine(vid, graph.adj[vid], &line);
    const int part = static_cast<int>(HashVid(vid) % num_parts);
    PREGELIX_RETURN_NOT_OK(parts[part]->Append(line));
  }
  for (auto& part : parts) {
    PREGELIX_RETURN_NOT_OK(part->Close());
  }
  return Status::OK();
}

}  // namespace pregelix
