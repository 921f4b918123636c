#ifndef PREGELIX_PREGEL_VERTEX_FORMAT_H_
#define PREGELIX_PREGEL_VERTEX_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/slice.h"
#include "common/status.h"
#include "pregel/serde.h"

namespace pregelix {

/// Binary layout of one row of the Vertex relation (Table 1 of the paper:
/// Vertex(vid, halt, value, edges)). The vid is the index key; the stored
/// value is:
///
///   [halt u8][value_len u32][value bytes][edge_count u32]
///   ([dst i64][edge_len u32][edge bytes])*
///
/// The halt flag lives in the first byte so plan-level code (filters, Vid
/// maintenance, pipelined-job reactivation) can read and write it without
/// decoding the user-typed value or edges.
struct VertexEdgeView {
  int64_t dst;
  Slice value;
};

struct VertexRecordView {
  bool halt = false;
  Slice value;
  std::vector<VertexEdgeView> edges;

  /// Parses `bytes` (which must outlive the view). Corruption on malformed.
  /// Reuses the capacity of `edges`.
  Status Parse(const Slice& bytes);
};

/// Reads just the halt flag.
inline bool VertexHalt(const Slice& record) {
  return !record.empty() && record[0] != 0;
}

/// Flips the halt flag in a serialized record in place.
inline void SetVertexHalt(std::string* record, bool halt) {
  if (!record->empty()) (*record)[0] = halt ? 1 : 0;
}

/// Appends the record of (halt, value, edges); each edge has a `dst` and a
/// `value`, serialized in place. The bytes are those EncodeVertexRecord
/// writes for the serialized parts.
template <typename V, typename Edge>
void PutVertexRecord(std::string* out, bool halt, const V& value,
                     const std::vector<Edge>& edges) {
  out->push_back(halt ? 1 : 0);
  PutLengthPrefixedValue(out, value);
  PutFixed32(out, static_cast<uint32_t>(edges.size()));
  for (const Edge& e : edges) {
    PutFixed64(out, static_cast<uint64_t>(e.dst));
    PutLengthPrefixedValue(out, e.value);
  }
}

/// Builds a record from already-serialized parts: the reference encoder
/// the typed one is tested against.
void EncodeVertexRecord(bool halt, const Slice& value,
                        const std::vector<std::pair<int64_t, std::string>>& edges,
                        std::string* out);

/// Reads the edge count without a full parse (for statistics).
int64_t VertexEdgeCount(const Slice& record);

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_VERTEX_FORMAT_H_
