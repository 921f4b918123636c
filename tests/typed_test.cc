#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pregel/serde.h"
#include "pregel/typed.h"
#include "pregel/vertex_format.h"

namespace pregelix {
namespace {

// ---------------------------------------------------------------------------
// Serde

TEST(SerdeTypedTest, PodRoundTrips) {
  EXPECT_EQ(SerializeValue<double>(3.25).size(), 8u);
  double d = 0;
  ASSERT_TRUE(DeserializeValue(Slice(SerializeValue(3.25)), &d));
  EXPECT_EQ(d, 3.25);

  int64_t i = 0;
  ASSERT_TRUE(DeserializeValue(Slice(SerializeValue<int64_t>(-17)), &i));
  EXPECT_EQ(i, -17);

  uint8_t b = 0;
  ASSERT_TRUE(DeserializeValue(Slice(SerializeValue<uint8_t>(200)), &b));
  EXPECT_EQ(b, 200);
}

TEST(SerdeTypedTest, StringAndVectorRoundTrips) {
  std::string s;
  ASSERT_TRUE(
      DeserializeValue(Slice(SerializeValue<std::string>("hello")), &s));
  EXPECT_EQ(s, "hello");

  std::vector<int64_t> v;
  ASSERT_TRUE(DeserializeValue(
      Slice(SerializeValue(std::vector<int64_t>{1, -2, 3})), &v));
  EXPECT_EQ(v, (std::vector<int64_t>{1, -2, 3}));

  std::vector<std::string> vs;
  ASSERT_TRUE(DeserializeValue(
      Slice(SerializeValue(std::vector<std::string>{"a", "", "ccc"})), &vs));
  EXPECT_EQ(vs, (std::vector<std::string>{"a", "", "ccc"}));
}

TEST(SerdeTypedTest, PairAndEmpty) {
  std::pair<int64_t, int64_t> p;
  ASSERT_TRUE(DeserializeValue(
      Slice(SerializeValue(std::pair<int64_t, int64_t>(7, -9))), &p));
  EXPECT_EQ(p.first, 7);
  EXPECT_EQ(p.second, -9);
  EXPECT_TRUE(SerializeValue(Empty{}).empty());
}

// A vector header claims 2^32 - 1 items and no item follows: the read
// fails instead of reserving for the claimed count.
TEST(SerdeTypedTest, HostileVectorCountFails) {
  std::string header;
  PutFixed32(&header, 0xFFFFFFFFu);
  std::vector<int64_t> v;
  EXPECT_FALSE(DeserializeValue(Slice(header), &v));
  std::vector<std::string> vs;
  EXPECT_FALSE(DeserializeValue(Slice(header), &vs));
}

TEST(SerdeTypedTest, TruncatedInputFails) {
  std::string buf = SerializeValue<double>(1.0);
  buf.resize(4);
  double d;
  EXPECT_FALSE(DeserializeValue(Slice(buf), &d));
  std::vector<int64_t> v;
  std::string vec = SerializeValue(std::vector<int64_t>{1, 2, 3});
  vec.resize(vec.size() - 3);
  EXPECT_FALSE(DeserializeValue(Slice(vec), &v));
}

// ---------------------------------------------------------------------------
// Vertex record format

TEST(VertexFormatTest, RoundTrip) {
  std::string record;
  EncodeVertexRecord(true, Slice("VALUE"),
                     {{7, "e7"}, {9, ""}, {-3, "edge"}}, &record);
  VertexRecordView view;
  ASSERT_TRUE(view.Parse(Slice(record)).ok());
  EXPECT_TRUE(view.halt);
  EXPECT_EQ(view.value.ToString(), "VALUE");
  ASSERT_EQ(view.edges.size(), 3u);
  EXPECT_EQ(view.edges[0].dst, 7);
  EXPECT_EQ(view.edges[0].value.ToString(), "e7");
  EXPECT_EQ(view.edges[1].value.ToString(), "");
  EXPECT_EQ(view.edges[2].dst, -3);
  EXPECT_EQ(VertexEdgeCount(Slice(record)), 3);
  EXPECT_TRUE(VertexHalt(Slice(record)));
}

TEST(VertexFormatTest, HaltFlipInPlace) {
  std::string record;
  EncodeVertexRecord(false, Slice("v"), {{1, "x"}}, &record);
  EXPECT_FALSE(VertexHalt(Slice(record)));
  SetVertexHalt(&record, true);
  EXPECT_TRUE(VertexHalt(Slice(record)));
  VertexRecordView view;
  ASSERT_TRUE(view.Parse(Slice(record)).ok());
  EXPECT_EQ(view.value.ToString(), "v");  // rest untouched
}

TEST(VertexFormatTest, CorruptionDetected) {
  VertexRecordView view;
  EXPECT_FALSE(view.Parse(Slice("ab")).ok());
  std::string record;
  EncodeVertexRecord(false, Slice("value"), {{1, "edge"}}, &record);
  record.resize(record.size() - 2);
  EXPECT_FALSE(view.Parse(Slice(record)).ok());
}

// A 17-byte record (halt, an 8-byte value) whose edge count claims
// 2^32 - 1 edges: Parse and the adapter's Compute return Corruption.
TEST(VertexFormatTest, HostileEdgeCountIsCorruption) {
  std::string record;
  record.push_back(0);
  PutLengthPrefixed(&record, Slice(SerializeValue<double>(1.0)));
  PutFixed32(&record, 0xFFFFFFFFu);
  ASSERT_EQ(record.size(), 17u);
  VertexRecordView view;
  EXPECT_EQ(view.Parse(Slice(record)).code(), StatusCode::kCorruption);
  // One edge short of its claimed count is corrupt too.
  std::string two;
  EncodeVertexRecord(false, Slice("v"), {{1, ""}, {2, ""}}, &two);
  EncodeFixed32(two.data() + 6, 3);
  EXPECT_EQ(view.Parse(Slice(two)).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// MessageIterator

TEST(MessageIteratorTest, CombinedSingleMessage) {
  const std::string payload = SerializeValue<double>(4.5);
  MessageIterator<double> it(Slice(payload), /*combined=*/true,
                             /*has_messages=*/true);
  ASSERT_TRUE(it.HasNext());
  EXPECT_EQ(it.Next(), 4.5);
  EXPECT_FALSE(it.HasNext());
}

TEST(MessageIteratorTest, ListOfMessages) {
  std::string payload;
  for (double d : {1.0, 2.0, 3.0}) {
    std::string item = SerializeValue(d);
    PutLengthPrefixed(&payload, Slice(item));
  }
  MessageIterator<double> it(Slice(payload), /*combined=*/false, true);
  std::vector<double> got;
  while (it.HasNext()) got.push_back(it.Next());
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(MessageIteratorTest, NoMessages) {
  MessageIterator<double> it(Slice(), /*combined=*/true,
                             /*has_messages=*/false);
  EXPECT_FALSE(it.HasNext());
  MessageIterator<Empty> it2(Slice(), /*combined=*/true, true);
  EXPECT_TRUE(it2.HasNext());  // zero-byte combined Empty message
  it2.Next();
  EXPECT_FALSE(it2.HasNext());
}

// ---------------------------------------------------------------------------
// TypedProgramAdapter end-to-end on one compute call

class EchoProgram : public TypedVertexProgram<double, double, double> {
 public:
  using Adapter = TypedProgramAdapter<double, double, double>;

  void Compute(VertexT& vertex, MessageIterator<double>& messages) override {
    double sum = 0;
    while (messages.HasNext()) sum += messages.Next();
    vertex.set_value(vertex.value() + sum);
    for (const EdgeT& e : vertex.edges()) {
      vertex.SendMessage(e.dst, vertex.value() + e.value);
    }
    vertex.Contribute(sum);
    if (vertex.superstep() >= 3) vertex.VoteToHalt();
  }

  bool has_combiner() const override { return true; }
  void Combine(double* acc, const double& m) const override { *acc += m; }
  GlobalAggHooks AggregatorHooks() const override {
    return MakeGlobalAgg<double>(0.0, [](double a, double b) { return a + b; });
  }
  std::string FormatValue(int64_t, const double& v) const override {
    return FormatDouble(v);
  }
};

TEST(TypedAdapterTest, ComputeRoundTrip) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);

  std::string record;
  ASSERT_TRUE(adapter.InitialVertex(5, {10, 20}, &record).ok());

  ComputeInput input;
  input.vid = 5;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  input.has_messages = true;
  const std::string payload = SerializeValue<double>(2.5);
  input.message_payload = Slice(payload);
  input.superstep = 1;
  ComputeOutput output;
  CollectingSink sink;
  output.sink = &sink;
  ASSERT_TRUE(adapter.Compute(input, &output).ok());

  EXPECT_TRUE(output.vertex_dirty);
  EXPECT_FALSE(output.voted_halt);
  ASSERT_EQ(sink.messages.size(), 2u);
  EXPECT_EQ(sink.messages[0].first, 10);
  double sent = 0;
  ASSERT_TRUE(DeserializeValue(Slice(sink.messages[0].second), &sent));
  EXPECT_EQ(sent, 2.5);  // value (0 + 2.5) + edge value (0)
  EXPECT_TRUE(output.has_aggregate);
  double contributed = 0;
  ASSERT_TRUE(
      DeserializeValue(Slice(output.aggregate_contribution), &contributed));
  EXPECT_EQ(contributed, 2.5);

  // Superstep 3 vote-to-halt propagates.
  input.superstep = 3;
  input.vertex_bytes = Slice(output.vertex_bytes);
  ASSERT_TRUE(adapter.Compute(input, &output).ok());
  EXPECT_TRUE(output.voted_halt);
}

TEST(TypedAdapterTest, MissingVertexGetsDefault) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  ComputeInput input;
  input.vid = 99;
  input.vertex_exists = false;
  input.has_messages = true;
  const std::string payload = SerializeValue<double>(1.0);
  input.message_payload = Slice(payload);
  input.superstep = 2;
  ComputeOutput output;
  ASSERT_TRUE(adapter.Compute(input, &output).ok());
  EXPECT_TRUE(output.vertex_dirty);  // created vertices must persist
  VertexRecordView view;
  ASSERT_TRUE(view.Parse(Slice(output.vertex_bytes)).ok());
  double value = 0;
  ASSERT_TRUE(DeserializeValue(view.value, &value));
  EXPECT_EQ(value, 1.0);
  EXPECT_TRUE(view.edges.empty());
}

TEST(TypedAdapterTest, UnchangedVertexIsNotDirty) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  std::string record;
  ASSERT_TRUE(adapter.InitialVertex(1, {}, &record).ok());
  // No messages, superstep 1: value += 0, re-encoded identically.
  ComputeInput input;
  input.vid = 1;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  input.has_messages = false;
  input.superstep = 1;
  ComputeOutput output;
  ASSERT_TRUE(adapter.Compute(input, &output).ok());
  EXPECT_FALSE(output.vertex_dirty);  // identical bytes: no churn
}

TEST(TypedAdapterTest, MessagesWithoutSinkFail) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  std::string record;
  ASSERT_TRUE(adapter.InitialVertex(5, {10}, &record).ok());
  ComputeInput input;
  input.vid = 5;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  ComputeOutput output;
  EXPECT_EQ(adapter.Compute(input, &output).code(),
            StatusCode::kInvalidArgument);
}

TEST(TypedAdapterTest, SinkErrorIsComputeStatus) {
  class FailingSink final : public MessageSink {
   public:
    Status Send(int64_t, const Slice&) override {
      return Status::IoError("sink full");
    }
  };
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  std::string record;
  ASSERT_TRUE(adapter.InitialVertex(5, {10}, &record).ok());
  ComputeInput input;
  input.vid = 5;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  ComputeOutput output;
  FailingSink sink;
  output.sink = &sink;
  EXPECT_TRUE(adapter.Compute(input, &output).IsIoError());
}

TEST(TypedAdapterTest, HostileRecordIsCorruption) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  std::string record;
  record.push_back(0);
  PutLengthPrefixed(&record, Slice(SerializeValue<double>(1.0)));
  PutFixed32(&record, 0xFFFFFFFFu);
  ComputeInput input;
  input.vid = 1;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  ComputeOutput output;
  EXPECT_EQ(adapter.Compute(input, &output).code(), StatusCode::kCorruption);
  std::string line;
  EXPECT_EQ(adapter.FormatVertex(1, Slice(record), &line).code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Record updates: whatever compute changed (the value, only the halt flag,
// a string value's length, the edges), the new record holds the very bytes
// the reference encoder writes for the same vertex.

/// A program whose compute body is set by the test.
template <typename V>
class ScriptedProgram : public TypedVertexProgram<V, double, double> {
 public:
  using Base = TypedVertexProgram<V, double, double>;
  using Adapter = TypedProgramAdapter<V, double, double>;
  using Body = std::function<void(typename Base::VertexT&)>;

  explicit ScriptedProgram(Body body) : body_(std::move(body)) {}
  void Compute(typename Base::VertexT& vertex,
               MessageIterator<double>&) override {
    body_(vertex);
  }
  std::string FormatValue(int64_t, const V&) const override { return ""; }

 private:
  Body body_;
};

/// The record a full encode writes, built with the untyped encoder.
template <typename V>
std::string FullRecord(bool halt, const V& value,
                       const std::vector<std::pair<int64_t, double>>& edges) {
  std::vector<std::pair<int64_t, std::string>> raw;
  for (const auto& [dst, weight] : edges) {
    raw.emplace_back(dst, SerializeValue(weight));
  }
  std::string out;
  EncodeVertexRecord(halt, Slice(SerializeValue(value)), raw, &out);
  return out;
}

/// Runs one compute call of `program` on `record`; returns the output.
template <typename V>
ComputeOutput RunOnce(ScriptedProgram<V>& program, const std::string& record) {
  typename ScriptedProgram<V>::Adapter adapter(&program);
  ComputeInput input;
  input.vid = 1;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  input.superstep = 2;
  ComputeOutput output;
  const Status s = adapter.Compute(input, &output);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

const std::vector<std::pair<int64_t, double>> kEdges = {
    {7, 0.5}, {-3, 2.0}, {11, 0.0}};

TEST(TypedAdapterTest, UpdatedRecordMatchesReferenceEncoder) {
  // A fixed-width value change keeps the record's length.
  ScriptedProgram<double> triple(
      [](auto& vertex) { vertex.set_value(vertex.value() * 3); });
  const std::string record = FullRecord(false, 1.25, kEdges);
  const ComputeOutput tripled = RunOnce(triple, record);
  ASSERT_TRUE(tripled.vertex_dirty);
  EXPECT_EQ(tripled.vertex_bytes, FullRecord(false, 3.75, kEdges));
  EXPECT_EQ(tripled.vertex_bytes.size(), record.size());

  ScriptedProgram<double> halt([](auto& vertex) {
    vertex.set_value(vertex.value());
    vertex.VoteToHalt();
  });
  const ComputeOutput halted = RunOnce(halt, FullRecord(false, 4.0, kEdges));
  ASSERT_TRUE(halted.vertex_dirty);
  EXPECT_TRUE(halted.voted_halt);
  EXPECT_EQ(halted.vertex_bytes, FullRecord(true, 4.0, kEdges));

  const std::string text = FullRecord<std::string>(false, "abc", kEdges);
  ScriptedProgram<std::string> grow(
      [](auto& vertex) { vertex.set_value(vertex.value() + "-and-more"); });
  const ComputeOutput grown = RunOnce(grow, text);
  ASSERT_TRUE(grown.vertex_dirty);
  EXPECT_EQ(grown.vertex_bytes,
            FullRecord<std::string>(false, "abc-and-more", kEdges));
  ScriptedProgram<std::string> shrink(
      [](auto& vertex) { vertex.set_value(vertex.value().substr(1)); });
  const ComputeOutput shrunk = RunOnce(shrink, text);
  ASSERT_TRUE(shrunk.vertex_dirty);
  EXPECT_EQ(shrunk.vertex_bytes, FullRecord<std::string>(false, "bc", kEdges));

  // No algorithm or example calls mutable_edges(): this is its coverage.
  ScriptedProgram<double> add_edge([](auto& vertex) {
    vertex.mutable_edges()->push_back({42, 9.5});
  });
  const ComputeOutput added = RunOnce(add_edge, FullRecord(false, 1.0, kEdges));
  ASSERT_TRUE(added.vertex_dirty);
  std::vector<std::pair<int64_t, double>> edges = kEdges;
  edges.emplace_back(42, 9.5);
  EXPECT_EQ(added.vertex_bytes, FullRecord(false, 1.0, edges));
}

TEST(TypedAdapterTest, UpdateHandlesInputAliasingOutput) {
  ScriptedProgram<std::string> program([](auto& vertex) {
    vertex.set_value(vertex.value() == "x" ? "x" : vertex.value() + "!");
  });
  typename ScriptedProgram<std::string>::Adapter adapter(&program);
  ComputeOutput output;
  output.vertex_bytes = FullRecord<std::string>(false, "ab", kEdges);
  ComputeInput input;
  input.vid = 1;
  input.vertex_exists = true;
  input.superstep = 2;
  // The input is the output's own buffer, as when a caller feeds a call's
  // result straight back in.
  for (const char* want : {"ab!", "ab!!"}) {
    input.vertex_bytes = Slice(output.vertex_bytes);
    ASSERT_TRUE(adapter.Compute(input, &output).ok());
    ASSERT_TRUE(output.vertex_dirty);
    EXPECT_EQ(output.vertex_bytes,
              FullRecord<std::string>(false, want, kEdges));
  }
  // Unchanged value and halt, still aliased: not dirty.
  output.vertex_bytes = FullRecord<std::string>(false, "x", kEdges);
  input.vertex_bytes = Slice(output.vertex_bytes);
  ASSERT_TRUE(adapter.Compute(input, &output).ok());
  EXPECT_FALSE(output.vertex_dirty);
}

TEST(TypedAdapterTest, TypedEncoderMatchesUntypedEncoder) {
  using Vertex = VertexHandle<std::string, double, double>;
  const std::vector<Vertex::Edge> edges = {{7, 0.5}, {-3, 2.0}, {11, 0.0}};
  std::string typed;
  PutVertexRecord(&typed, true, std::string("value"), edges);
  EXPECT_EQ(typed, FullRecord<std::string>(true, "value", kEdges));
  // InitialVertex goes through the same encoder.
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  std::string record = "stale bytes";
  ASSERT_TRUE(adapter.InitialVertex(5, {10, 20}, &record).ok());
  EXPECT_EQ(record, FullRecord(false, 0.0, {{10, 0.0}, {20, 0.0}}));
}

// Compute clones of one superstep share one adapter and run at once; each
// thread has its own scratch, so four threads over disjoint vertices
// produce what one thread does, round after round.
TEST(TypedAdapterTest, ConcurrentComputeOnSharedAdapterMatchesOneThread) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  constexpr int kVertices = 4000;
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::vector<std::string> records(kVertices);
  std::vector<std::string> payloads(kVertices);
  for (int v = 0; v < kVertices; ++v) {
    std::vector<int64_t> dests;
    for (int d = 0; d < v % 41; ++d) dests.push_back((v * 31 + d) % kVertices);
    ASSERT_TRUE(adapter.InitialVertex(v, dests, &records[v]).ok());
    payloads[v] = SerializeValue<double>(0.5 * v);
  }
  auto call = [&](int v, ComputeOutput* output, CollectingSink* sink) {
    ComputeInput input;
    input.vid = v;
    input.vertex_exists = true;
    input.vertex_bytes = Slice(records[v]);
    input.has_messages = v % 3 != 0;
    input.message_payload = Slice(payloads[v]);
    input.superstep = 2 + v % 2;
    output->Clear();
    sink->messages.clear();
    return adapter.Compute(input, output);
  };
  struct Result {
    bool dirty = false;
    bool halt = false;
    std::string bytes;
    std::vector<std::pair<int64_t, std::string>> messages;
    std::string aggregate;
  };
  std::vector<Result> serial(kVertices);
  {
    ComputeOutput output;
    CollectingSink sink;
    output.sink = &sink;
    for (int v = 0; v < kVertices; ++v) {
      ASSERT_TRUE(call(v, &output, &sink).ok());
      serial[v] = {output.vertex_dirty, output.voted_halt, output.vertex_bytes,
                   sink.messages, output.aggregate_contribution};
    }
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  std::latch start(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ComputeOutput output;
      CollectingSink sink;
      output.sink = &sink;
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        for (int v = t; v < kVertices; v += kThreads) {
          const Result& want = serial[v];
          if (!call(v, &output, &sink).ok() ||
              output.vertex_dirty != want.dirty ||
              output.voted_halt != want.halt ||
              output.vertex_bytes != want.bytes ||
              sink.messages != want.messages ||
              output.aggregate_contribution != want.aggregate) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(TypedAdapterTest, CombinerHooksFold) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  GroupCombiner combiner = adapter.MsgCombiner();
  ASSERT_TRUE(combiner.valid());
  std::string acc;
  combiner.init(Slice(SerializeValue<double>(1.5)), &acc);
  combiner.step(Slice(SerializeValue<double>(2.0)), &acc);
  combiner.step(Slice(SerializeValue<double>(-0.5)), &acc);
  double result = 0;
  ASSERT_TRUE(DeserializeValue(Slice(acc), &result));
  EXPECT_EQ(result, 3.0);
}

TEST(TypedAdapterTest, FormatVertexPrefixesVid) {
  EchoProgram program;
  EchoProgram::Adapter adapter(&program);
  std::string record;
  ASSERT_TRUE(adapter.InitialVertex(42, {}, &record).ok());
  std::string line;
  ASSERT_TRUE(adapter.FormatVertex(42, Slice(record), &line).ok());
  EXPECT_EQ(line.rfind("42 ", 0), 0u);
}

TEST(TypedAdapterTest, MutationsFlowThrough) {
  class MutateOnce : public TypedVertexProgram<int64_t, Empty, int64_t> {
   public:
    void Compute(VertexT& vertex, MessageIterator<int64_t>&) override {
      vertex.AddVertex(100, 7);
      vertex.RemoveVertex(200);
      vertex.VoteToHalt();
    }
    std::string FormatValue(int64_t, const int64_t& v) const override {
      return std::to_string(v);
    }
  };
  MutateOnce program;
  TypedProgramAdapter<int64_t, Empty, int64_t> adapter(&program);
  std::string record;
  ASSERT_TRUE(adapter.InitialVertex(1, {}, &record).ok());
  ComputeInput input;
  input.vid = 1;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  input.superstep = 1;
  ComputeOutput output;
  ASSERT_TRUE(adapter.Compute(input, &output).ok());
  ASSERT_EQ(output.mutations.size(), 2u);
  EXPECT_EQ(output.mutations[0].op, MutationRecord::Op::kAddVertex);
  EXPECT_EQ(output.mutations[0].vid, 100);
  VertexRecordView view;
  ASSERT_TRUE(view.Parse(Slice(output.mutations[0].vertex_bytes)).ok());
  EXPECT_FALSE(view.halt);  // added vertices start active
  EXPECT_EQ(output.mutations[1].op, MutationRecord::Op::kRemoveVertex);
  EXPECT_EQ(output.mutations[1].vid, 200);
}

}  // namespace
}  // namespace pregelix
