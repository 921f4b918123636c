#include "pregel/vertex_format.h"

#include "common/serde.h"

namespace pregelix {

Status VertexRecordView::Parse(const Slice& bytes) {
  edges.clear();
  Slice in = bytes;
  if (in.size() < 1 + 4) return Status::Corruption("vertex record too short");
  halt = in[0] != 0;
  in.remove_prefix(1);
  Slice v;
  if (!GetLengthPrefixed(&in, &v)) {
    return Status::Corruption("vertex value truncated");
  }
  value = v;
  if (in.size() < 4) return Status::Corruption("vertex edge count missing");
  const uint32_t count = DecodeFixed32(in.data());
  in.remove_prefix(4);
  // An edge takes at least 12 bytes (dst + value length): a count the
  // remaining bytes cannot hold is corrupt, and must not size the reserve.
  if (count > in.size() / 12) {
    return Status::Corruption("vertex edge count exceeds the record");
  }
  edges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (in.size() < 8) return Status::Corruption("vertex edge truncated");
    VertexEdgeView edge;
    edge.dst = static_cast<int64_t>(DecodeFixed64(in.data()));
    in.remove_prefix(8);
    Slice ev;
    if (!GetLengthPrefixed(&in, &ev)) {
      return Status::Corruption("vertex edge value truncated");
    }
    edge.value = ev;
    edges.push_back(edge);
  }
  return Status::OK();
}

int64_t VertexEdgeCount(const Slice& record) {
  if (record.size() < 9) return 0;
  const uint32_t vlen = DecodeFixed32(record.data() + 1);
  const size_t off = 1 + 4 + static_cast<size_t>(vlen);
  if (record.size() < off + 4) return 0;
  return DecodeFixed32(record.data() + off);
}

void EncodeVertexRecord(
    bool halt, const Slice& value,
    const std::vector<std::pair<int64_t, std::string>>& edges,
    std::string* out) {
  out->clear();
  out->push_back(halt ? 1 : 0);
  PutLengthPrefixed(out, value);
  PutFixed32(out, static_cast<uint32_t>(edges.size()));
  for (const auto& [dst, ev] : edges) {
    PutFixed64(out, static_cast<uint64_t>(dst));
    PutLengthPrefixed(out, Slice(ev));
  }
}

}  // namespace pregelix
