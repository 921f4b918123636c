#ifndef PREGELIX_PREGEL_PROGRAM_H_
#define PREGELIX_PREGEL_PROGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "dataflow/ops/sort.h"

namespace pregelix {

/// A graph mutation emitted by compute (flow D6 of the logical plan).
struct MutationRecord {
  enum class Op : uint8_t { kAddVertex = 0, kRemoveVertex = 1 };
  Op op;
  int64_t vid;
  std::string vertex_bytes;  ///< serialized vertex record for kAddVertex
};

/// What the runtime hands one compute call (the joined Msg ⟗ Vertex row of
/// flow D1, post-filter).
struct ComputeInput {
  int64_t vid = 0;
  bool vertex_exists = false;
  Slice vertex_bytes;       ///< valid when vertex_exists
  bool has_messages = false;
  Slice message_payload;    ///< combined payload (combiner output) when
                            ///< has_messages; encoding per MsgCombiner
  int64_t superstep = 1;
  Slice global_aggregate;   ///< previous superstep's global aggregate value
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
};

/// Receives the messages of a compute call (flow D3), one (destination,
/// payload) pair at a time. The payload is valid for the call only.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual Status Send(int64_t dst, const Slice& payload) = 0;
};

/// A sink that keeps a copy of every message, in send order: for callers
/// that route messages only after the compute call returns.
class CollectingSink final : public MessageSink {
 public:
  Status Send(int64_t dst, const Slice& payload) override {
    messages.emplace_back(dst, payload.ToString());
    return Status::OK();
  }
  std::vector<std::pair<int64_t, std::string>> messages;  ///< (dst, payload)
};

/// What one compute call produces (the multi-flow output of the compute UDF:
/// D2 vertex update, D3 messages, D4/D5 global state, D6 mutations).
struct ComputeOutput {
  bool vertex_dirty = false;
  std::string vertex_bytes;  ///< written back to Vertex when vertex_dirty
  bool voted_halt = false;   ///< halt state after this call
  /// Where the messages go; set by the caller, kept by Clear. A call that
  /// sends a message without a sink fails.
  MessageSink* sink = nullptr;
  bool has_aggregate = false;
  std::string aggregate_contribution;
  std::vector<MutationRecord> mutations;

  void Clear() {
    vertex_dirty = false;
    vertex_bytes.clear();
    voted_halt = false;
    has_aggregate = false;
    aggregate_contribution.clear();
    mutations.clear();
  }
};

/// Hooks for the global aggregate (flows D5/D9). `step` must be able to fold
/// both raw contributions and partial aggregates (two-stage aggregation,
/// paper Section 5.3.3), i.e., be associative and commutative.
struct GlobalAggHooks {
  std::string initial;  ///< identity element (also the superstep-1 value)
  std::function<void(const Slice& contribution, std::string* acc)> step;
  std::function<void(std::string* acc)> finish;  ///< optional, applied at the
                                                 ///< single global stage only
  bool valid() const { return static_cast<bool>(step); }
};

/// Untyped vertex program: the four UDFs of Table 2 plus input/output
/// formatting, all over serialized bytes. Applications use the typed facade
/// in pregel/typed.h, which adapts a Vertex<V,E,M>-style program to this
/// interface; the plan generator and operators only ever see this one.
class PregelProgram {
 public:
  virtual ~PregelProgram() = default;

  /// Builds the initial vertex record from one input adjacency line.
  virtual Status InitialVertex(int64_t vid,
                               const std::vector<int64_t>& dests,
                               std::string* vertex_bytes) = 0;

  /// The compute UDF.
  virtual Status Compute(const ComputeInput& input, ComputeOutput* output) = 0;

  /// The combine UDF as group-by hooks over message payloads. The default
  /// (no user combiner) gathers messages into a length-prefixed list; in
  /// that case message payloads emitted by Compute must already be
  /// length-prefixed single items (the typed facade does this).
  virtual GroupCombiner MsgCombiner() const = 0;

  /// The aggregate UDF; invalid hooks disable global aggregation.
  virtual GlobalAggHooks GlobalAggregator() const { return {}; }

  /// The resolve UDF (conflict resolution for graph mutations). Receives
  /// all mutations for one vid in emission order; returns the action to
  /// apply against the Vertex relation. The default applies deletions
  /// before insertions, last insertion wins (paper Section 2.1).
  enum class ResolveAction { kNone, kUpsert, kDelete };
  virtual ResolveAction Resolve(int64_t vid,
                                const std::vector<MutationRecord>& mutations,
                                std::string* vertex_bytes) const;

  /// Formats one vertex for result output: replaces *line with its text
  /// (no newline).
  virtual Status FormatVertex(int64_t vid, const Slice& vertex_bytes,
                              std::string* line) = 0;

  /// Declares that Compute may emit graph mutations (flow D6). A contract,
  /// not a hint: only a program that returns true gets the D6 flow and the
  /// resolve operator in its superstep plan, and a Compute that emits a
  /// mutation while this returns false fails its job with InvalidArgument.
  /// The admission-time storage chooser (VertexStorage::kAuto) also picks
  /// the LSM B-tree for these programs; everything else keeps the in-place
  /// B-tree.
  virtual bool MutatesGraph() const { return false; }
};

/// The default "gather into a list" combiner: payloads are length-prefixed
/// item sequences; combining is concatenation (associative across spills).
GroupCombiner ListMsgCombiner();

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_PROGRAM_H_
