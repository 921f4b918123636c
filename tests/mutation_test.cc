#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"
#include "pregel/typed.h"

namespace pregelix {
namespace {

/// Exercises flow D6 (vertex addition/removal + resolve): in superstep 1
/// every even vertex deletes its odd successor (vid+1) and adds a "shadow"
/// vertex at vid+1000; everything halts by superstep 2.
class MutatingProgram : public TypedVertexProgram<int64_t, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<int64_t, Empty, int64_t>;

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    if (vertex.superstep() == 1 && vertex.id() < 1000) {
      if (vertex.id() % 2 == 0) {
        vertex.RemoveVertex(vertex.id() + 1);
        vertex.AddVertex(vertex.id() + 1000, vertex.id());
      }
    }
    vertex.VoteToHalt();
  }

  bool mutates_graph() const override { return true; }

  std::string FormatValue(int64_t, const int64_t& value) const override {
    return std::to_string(value);
  }
};

/// Conflicting mutations: many vertices add the SAME vid with different
/// values; a custom resolve keeps the max.
class ConflictProgram : public TypedVertexProgram<int64_t, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<int64_t, Empty, int64_t>;

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    if (vertex.superstep() == 1 && vertex.id() < 1000) {
      vertex.AddVertex(5000, vertex.id());  // everyone fights over vid 5000
    }
    vertex.VoteToHalt();
  }

  bool mutates_graph() const override { return true; }

  bool has_custom_resolve() const override { return true; }
  PregelProgram::ResolveAction ResolveTyped(
      int64_t vid, const std::vector<MutationRecord>& mutations,
      std::string* vertex_bytes) const override {
    int64_t best = std::numeric_limits<int64_t>::min();
    std::string best_bytes;
    for (const MutationRecord& m : mutations) {
      if (m.op != MutationRecord::Op::kAddVertex) continue;
      VertexRecordView view;
      if (!view.Parse(Slice(m.vertex_bytes)).ok()) continue;
      int64_t value = 0;
      DeserializeValue(view.value, &value);
      if (value > best) {
        best = value;
        best_bytes = m.vertex_bytes;
      }
    }
    if (best_bytes.empty()) return PregelProgram::ResolveAction::kNone;
    *vertex_bytes = best_bytes;
    return PregelProgram::ResolveAction::kUpsert;
  }

  std::string FormatValue(int64_t, const int64_t& value) const override {
    return std::to_string(value);
  }
};

/// MutatingProgram's compute without its declaration: the plan has no D6
/// flow, so the job must fail instead of dropping the mutations.
class UndeclaredMutatingProgram
    : public TypedVertexProgram<int64_t, Empty, int64_t> {
 public:
  using Adapter = TypedProgramAdapter<int64_t, Empty, int64_t>;

  void Compute(VertexT& vertex, MessageIterator<int64_t>& messages) override {
    if (vertex.superstep() == 1 && vertex.id() == 6) {
      vertex.RemoveVertex(7);
    }
    vertex.VoteToHalt();
  }

  std::string FormatValue(int64_t, const int64_t& value) const override {
    return std::to_string(value);
  }
};

class MutationTest : public ::testing::Test {
 protected:
  MutationTest() : dfs_(dir_.Sub("dfs")) {
    ClusterConfig config;
    config.num_workers = 3;
    config.worker_ram_bytes = 8u << 20;
    config.temp_root = dir_.Sub("cluster");
    cluster_ = std::make_unique<SimulatedCluster>(config);
    runtime_ = std::make_unique<PregelixRuntime>(cluster_.get(), &dfs_);

    // A 20-vertex cycle.
    InMemoryGraph graph;
    graph.adj.resize(20);
    for (int64_t v = 0; v < 20; ++v) graph.adj[v] = {(v + 1) % 20};
    EXPECT_TRUE(WriteGraph(dfs_, "input", graph, 2).ok());
  }

  std::map<int64_t, int64_t> ReadOutput(const std::string& dir) {
    std::map<int64_t, int64_t> out;
    std::vector<std::string> names;
    EXPECT_TRUE(dfs_.List(dir, &names).ok());
    for (const std::string& name : names) {
      std::string contents;
      EXPECT_TRUE(dfs_.Read(dir + "/" + name, &contents).ok());
      std::istringstream lines(contents);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.empty()) continue;
        std::istringstream fields(line);
        int64_t vid, value;
        fields >> vid >> value;
        out[vid] = value;
      }
    }
    return out;
  }

  TempDir dir_{"mutation-test"};
  DistributedFileSystem dfs_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<PregelixRuntime> runtime_;
};

TEST_F(MutationTest, AddAndRemoveVerticesWithDefaultResolve) {
  MutatingProgram program;
  MutatingProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "mutate";
  job.input_dir = "input";
  job.output_dir = "out";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ReadOutput("out");
  // Odd originals deleted, shadows added: 10 even + 10 shadows.
  EXPECT_EQ(output.size(), 20u);
  for (int64_t v = 0; v < 20; v += 2) {
    EXPECT_TRUE(output.count(v)) << v;
    EXPECT_FALSE(output.count(v + 1)) << v + 1;
    ASSERT_TRUE(output.count(v + 1000)) << v + 1000;
    EXPECT_EQ(output[v + 1000], v);
  }
  // GS bookkeeping followed the mutations.
  EXPECT_EQ(result.final_gs.num_vertices, 20);
}

TEST_F(MutationTest, MutationsWorkWithLsmStorageAndLeftOuterJoin) {
  MutatingProgram program;
  MutatingProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "mutate-lsm";
  job.input_dir = "input";
  job.output_dir = "out-lsm";
  job.storage = VertexStorage::kLsmBTree;
  job.join = JoinStrategy::kLeftOuter;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto output = ReadOutput("out-lsm");
  EXPECT_EQ(output.size(), 20u);
  EXPECT_FALSE(output.count(1));
  EXPECT_TRUE(output.count(1000));
}

TEST_F(MutationTest, CustomResolvePicksWinner) {
  ConflictProgram program;
  ConflictProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "conflict";
  job.input_dir = "input";
  job.output_dir = "out-conflict";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto output = ReadOutput("out-conflict");
  ASSERT_TRUE(output.count(5000));
  // Max contributor is vertex 19.
  EXPECT_EQ(output[5000], 19);
  EXPECT_EQ(result.final_gs.num_vertices, 21);
}

TEST_F(MutationTest, UndeclaredMutationFailsTheJob) {
  UndeclaredMutatingProgram program;
  UndeclaredMutatingProgram::Adapter adapter(&program);
  for (JoinStrategy join :
       {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
    PregelixJobConfig job;
    job.name = "undeclared";
    job.input_dir = "input";
    job.output_dir = "out-undeclared";
    job.join = join;
    JobResult result;
    const Status s = runtime_->Run(&adapter, job, &result);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find("undeclared-superstep-1/compute-"),
              std::string::npos)
        << s.ToString();
    EXPECT_NE(
        s.message().find("vertex 6 emitted a graph mutation of vertex 7"),
        std::string::npos)
        << s.ToString();
  }
}

}  // namespace
}  // namespace pregelix
