#ifndef PREGELIX_PREGEL_TYPED_H_
#define PREGELIX_PREGEL_TYPED_H_

#include <charconv>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "pregel/program.h"
#include "pregel/serde.h"
#include "pregel/vertex_format.h"

namespace pregelix {

/// Typed facade over the untyped Pregelix engine — the analog of the paper's
/// Java Vertex<I, V, E, M> API (Figure 9), with vid fixed to int64.
///
/// Applications subclass TypedVertexProgram<V, E, M> and implement Compute;
/// TypedProgramAdapter bridges to the byte-level PregelProgram interface the
/// plan generator consumes.

/// Iterator over the messages delivered to one vertex, in the style of the
/// paper's `Iterator<M> msgIterator`.
template <typename M>
class MessageIterator {
 public:
  /// `payload` encoding depends on whether a combiner is configured:
  /// combined = one M; otherwise a length-prefixed list of M.
  MessageIterator(const Slice& payload, bool combined, bool has_messages)
      : remaining_(payload), combined_(combined), has_messages_(has_messages) {}

  bool HasNext() const {
    if (!has_messages_) return false;
    if (combined_) return !consumed_;
    return !remaining_.empty();
  }

  M Next() {
    PREGELIX_CHECK(HasNext());
    M message{};
    if (combined_) {
      Slice in = remaining_;
      PREGELIX_CHECK(Serde<M>::Read(&in, &message)) << "bad combined message";
      consumed_ = true;
    } else {
      Slice item;
      PREGELIX_CHECK(GetLengthPrefixed(&remaining_, &item))
          << "bad message list";
      Slice in = item;
      PREGELIX_CHECK(Serde<M>::Read(&in, &message)) << "bad message item";
    }
    return message;
  }

 private:
  Slice remaining_;
  bool combined_;
  bool has_messages_;
  bool consumed_ = false;
};

/// The vertex handle passed to Compute: state accessors, message sending,
/// halting, and graph mutation — the full Pregel API of paper Section 2.1.
template <typename V, typename E, typename M>
class VertexHandle {
 public:
  struct Edge {
    int64_t dst;
    E value;
  };

  int64_t id() const { return id_; }
  int64_t superstep() const { return superstep_; }
  int64_t num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return num_edges_; }

  const V& value() const { return value_; }
  void set_value(const V& v) {
    value_ = v;
    dirty_ = true;
  }
  V* mutable_value() {
    dirty_ = true;
    return &value_;
  }

  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>* mutable_edges() {
    dirty_ = true;
    return &edges_;
  }

  void SendMessage(int64_t dst, const M& message) {
    messages_.emplace_back(dst, message);
  }
  void SendMessageToAllEdges(const M& message) {
    for (const Edge& e : edges_) messages_.emplace_back(e.dst, message);
  }

  void VoteToHalt() { halt_ = true; }
  void Activate() { halt_ = false; }
  bool halted() const { return halt_; }

  /// Reads the global aggregate produced by the previous superstep.
  template <typename A>
  bool GetAggregate(A* out) const {
    if (global_aggregate_.empty()) return false;
    return DeserializeValue(Slice(global_aggregate_), out);
  }
  /// Contributes a value to this superstep's global aggregation.
  template <typename A>
  void Contribute(const A& value) {
    has_aggregate_ = true;
    aggregate_contribution_.clear();
    Serde<A>::Write(value, &aggregate_contribution_);
  }

  /// Graph mutations (resolved by the resolve UDF at the end of the
  /// superstep; paper Figure 5).
  void AddVertex(int64_t vid, const V& value, std::vector<Edge> edges = {}) {
    MutationRecord m;
    m.op = MutationRecord::Op::kAddVertex;
    m.vid = vid;
    PutVertexRecord(&m.vertex_bytes, false, value, edges);
    mutations_.push_back(std::move(m));
  }
  void RemoveVertex(int64_t vid) {
    MutationRecord m;
    m.op = MutationRecord::Op::kRemoveVertex;
    m.vid = vid;
    mutations_.push_back(std::move(m));
  }

 private:
  template <typename V2, typename E2, typename M2>
  friend class TypedProgramAdapter;

  int64_t id_ = 0;
  int64_t superstep_ = 1;
  int64_t num_vertices_ = 0;
  int64_t num_edges_ = 0;
  V value_{};
  std::vector<Edge> edges_;
  bool halt_ = false;
  bool dirty_ = false;
  Slice global_aggregate_;
  std::vector<std::pair<int64_t, M>> messages_;
  bool has_aggregate_ = false;
  std::string aggregate_contribution_;
  std::vector<MutationRecord> mutations_;
};

/// Base class for typed vertex programs.
template <typename V, typename E, typename M>
class TypedVertexProgram {
 public:
  using VertexT = VertexHandle<V, E, M>;
  using EdgeT = typename VertexT::Edge;

  virtual ~TypedVertexProgram() = default;

  /// The compute UDF, executed at each active vertex in every superstep.
  virtual void Compute(VertexT& vertex, MessageIterator<M>& messages) = 0;

  /// Message combiner (paper Table 2). When enabled, Combine folds an
  /// incoming message into the accumulator; it must be associative and
  /// commutative.
  virtual bool has_combiner() const { return false; }
  virtual void Combine(M* accumulator, const M& incoming) const {}

  /// Global aggregation hooks (see MakeGlobalAgg below for a typed helper).
  virtual GlobalAggHooks AggregatorHooks() const { return {}; }

  /// Initial state for graph loading.
  virtual V InitialValue(int64_t vid,
                         const std::vector<int64_t>& dests) const {
    return V{};
  }
  virtual E InitialEdgeValue(int64_t src, int64_t dst) const { return E{}; }

  /// Value for vertices auto-created by messages to missing vids.
  virtual V DefaultValue() const { return V{}; }

  /// Result formatting: the text after the vid on each output line.
  virtual std::string FormatValue(int64_t vid, const V& value) const = 0;

  /// Declares that Compute may call AddVertex/RemoveVertex. A program that
  /// calls either must return true: otherwise its plan has no resolve and
  /// the job fails (see PregelProgram::MutatesGraph).
  virtual bool mutates_graph() const { return false; }

  /// Custom mutation conflict resolution; default = deletes first, last
  /// insert wins.
  virtual bool has_custom_resolve() const { return false; }
  virtual PregelProgram::ResolveAction ResolveTyped(
      int64_t vid, const std::vector<MutationRecord>& mutations,
      std::string* vertex_bytes) const {
    return PregelProgram::ResolveAction::kNone;
  }
};

/// Full-precision double formatting for result dumps (std::to_string
/// truncates to 6 decimals).
inline std::string FormatDouble(double value) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Builds typed global-aggregation hooks from an identity element and a
/// binary merge function (associative + commutative).
template <typename A>
GlobalAggHooks MakeGlobalAgg(A identity, std::function<A(A, A)> merge) {
  GlobalAggHooks hooks;
  hooks.initial = SerializeValue(identity);
  hooks.step = [merge](const Slice& contribution, std::string* acc) {
    A a{}, c{};
    PREGELIX_CHECK(DeserializeValue(Slice(*acc), &a));
    PREGELIX_CHECK(DeserializeValue(contribution, &c));
    *acc = SerializeValue(merge(a, c));
  };
  return hooks;
}

/// Adapts a typed program to the byte-level PregelProgram interface.
template <typename V, typename E, typename M>
class TypedProgramAdapter : public PregelProgram {
 public:
  using Program = TypedVertexProgram<V, E, M>;
  using VertexT = typename Program::VertexT;
  using EdgeT = typename Program::EdgeT;

  explicit TypedProgramAdapter(Program* program) : program_(program) {}

  Status InitialVertex(int64_t vid, const std::vector<int64_t>& dests,
                       std::string* vertex_bytes) override {
    std::vector<EdgeT>& edges = ThreadScratch().vertex.edges_;
    edges.clear();
    for (int64_t d : dests) {
      edges.push_back(EdgeT{d, program_->InitialEdgeValue(vid, d)});
    }
    vertex_bytes->clear();
    PutVertexRecord(vertex_bytes, false, program_->InitialValue(vid, dests),
                    edges);
    return Status::OK();
  }

  Status Compute(const ComputeInput& input, ComputeOutput* output) override {
    Scratch& scratch = ThreadScratch();
    VertexT& vertex = scratch.vertex;
    VertexRecordView& view = scratch.view;
    vertex.id_ = input.vid;
    vertex.superstep_ = input.superstep;
    vertex.num_vertices_ = input.num_vertices;
    vertex.num_edges_ = input.num_edges;
    vertex.global_aggregate_ = input.global_aggregate;
    vertex.halt_ = false;
    vertex.dirty_ = false;
    vertex.edges_.clear();
    vertex.messages_.clear();
    vertex.has_aggregate_ = false;
    vertex.aggregate_contribution_.clear();
    vertex.mutations_.clear();

    if (input.vertex_exists) {
      PREGELIX_RETURN_NOT_OK(view.Parse(input.vertex_bytes));
      vertex.halt_ = view.halt;
      if (!DeserializeValue(view.value, &vertex.value_)) {
        return Status::Corruption("vertex value deserialization failed");
      }
      vertex.edges_.reserve(view.edges.size());
      for (const VertexEdgeView& e : view.edges) {
        EdgeT& edge = vertex.edges_.emplace_back();
        edge.dst = e.dst;
        if (!DeserializeValue(e.value, &edge.value)) {
          return Status::Corruption("edge value deserialization failed");
        }
      }
      // A delivered message reactivates a halted vertex (Pregel semantics).
      if (input.has_messages) vertex.halt_ = false;
    } else {
      // Left-outer case of the join: create the vertex with default fields.
      vertex.value_ = program_->DefaultValue();
      vertex.dirty_ = true;
    }

    MessageIterator<M> messages(input.message_payload,
                                program_->has_combiner(),
                                input.has_messages);
    program_->Compute(vertex, messages);

    output->voted_halt = vertex.halt_;
    output->vertex_dirty = vertex.dirty_ || !input.vertex_exists;
    if (output->vertex_dirty) {
      // Decide "unchanged" against the input before storing anything:
      // input.vertex_bytes may alias the caller's reused
      // output->vertex_bytes buffer.
      std::string& record = scratch.record;
      record.clear();
      PutVertexRecord(&record, vertex.halt_, vertex.value_, vertex.edges_);
      if (input.vertex_exists && Slice(record) == input.vertex_bytes) {
        output->vertex_dirty = false;
        output->vertex_bytes.clear();
      } else {
        output->vertex_bytes.swap(record);
      }
    }
    // Messages leave through the sink only after the UDF has returned, so
    // a sink error comes back as this call's Status.
    if (!vertex.messages_.empty() && output->sink == nullptr) {
      return Status::InvalidArgument("compute sent messages without a sink");
    }
    const bool combined = program_->has_combiner();
    std::string& payload = scratch.payload;
    for (const auto& [dst, message] : vertex.messages_) {
      payload.clear();
      if (combined) {
        Serde<M>::Write(message, &payload);
      } else {
        // Default combine gathers into a list: one length-prefixed item.
        PutLengthPrefixedValue(&payload, message);
      }
      PREGELIX_RETURN_NOT_OK(output->sink->Send(dst, Slice(payload)));
    }
    output->has_aggregate = vertex.has_aggregate_;
    output->aggregate_contribution = vertex.aggregate_contribution_;
    output->mutations = std::move(vertex.mutations_);
    return Status::OK();
  }

  GroupCombiner MsgCombiner() const override {
    if (!program_->has_combiner()) return ListMsgCombiner();
    GroupCombiner c;
    Program* program = program_;
    c.init = [](const Slice& payload, std::string* acc) {
      acc->assign(payload.data(), payload.size());
    };
    if constexpr (kFixedWidthMessage) {
      // Serde<M> writes exactly sizeof(M) bytes: the combiner folds the
      // bytes in place, and the dense group-by can run on it.
      c.width = sizeof(M);
      c.fold = [program](char* acc, const char* in) {
        FoldMessage(*program, acc, in);
      };
      c.step = [program](const Slice& payload, std::string* acc) {
        PREGELIX_CHECK(payload.size() == sizeof(M)) << "bad message width";
        acc->resize(sizeof(M));
        FoldMessage(*program, acc->data(), payload.data());
      };
    } else {
      c.step = [program](const Slice& payload, std::string* acc) {
        M accumulator{}, incoming{};
        PREGELIX_CHECK(DeserializeValue(Slice(*acc), &accumulator));
        PREGELIX_CHECK(DeserializeValue(payload, &incoming));
        program->Combine(&accumulator, incoming);
        acc->clear();
        Serde<M>::Write(accumulator, acc);
      };
    }
    return c;
  }

  GlobalAggHooks GlobalAggregator() const override {
    return program_->AggregatorHooks();
  }

  ResolveAction Resolve(int64_t vid,
                        const std::vector<MutationRecord>& mutations,
                        std::string* vertex_bytes) const override {
    if (program_->has_custom_resolve()) {
      return program_->ResolveTyped(vid, mutations, vertex_bytes);
    }
    return PregelProgram::Resolve(vid, mutations, vertex_bytes);
  }

  Status FormatVertex(int64_t vid, const Slice& vertex_bytes,
                      std::string* line) override {
    Scratch& scratch = ThreadScratch();
    PREGELIX_RETURN_NOT_OK(scratch.view.Parse(vertex_bytes));
    V& value = scratch.vertex.value_;
    if (!DeserializeValue(scratch.view.value, &value)) {
      return Status::Corruption("vertex value deserialization failed");
    }
    char digits[24];
    const char* end =
        std::to_chars(digits, digits + sizeof(digits), vid).ptr;
    line->assign(digits, end - digits);
    line->push_back(' ');
    line->append(program_->FormatValue(vid, value));
    return Status::OK();
  }

  bool MutatesGraph() const override { return program_->mutates_graph(); }

 private:
  static constexpr bool kFixedWidthMessage =
      std::is_trivially_copyable_v<M> && !std::is_empty_v<M>;

  /// Per-thread compute state, reset by every call and never shrunk, so
  /// that after a task's first vertices the edge, message and record
  /// buffers stop allocating. Per thread, not per adapter: the P compute
  /// clones of a superstep share one adapter and run at the same time.
  /// What Compute hands the UDF (edges(), value()) lives for one call.
  struct Scratch {
    VertexT vertex;
    VertexRecordView view;
    std::string record;   ///< the new vertex record
    std::string payload;  ///< one serialized message
  };
  static Scratch& ThreadScratch() {
    thread_local Scratch scratch;
    return scratch;
  }

  /// The program's Combine on the raw bytes of two messages.
  static void FoldMessage(const Program& program, char* acc, const char* in) {
    M accumulator{}, incoming{};
    std::memcpy(&accumulator, acc, sizeof(M));
    std::memcpy(&incoming, in, sizeof(M));
    program.Combine(&accumulator, incoming);
    std::memcpy(acc, &accumulator, sizeof(M));
  }

  Program* program_;
};

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_TYPED_H_
