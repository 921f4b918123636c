#include <gtest/gtest.h>

#include <string>

#include "algorithms/sssp.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "pregel/plans.h"
#include "pregel/state.h"

namespace pregelix {
namespace {

/// White-box tests of the plan generator: the generated dataflow DAGs must
/// have the structure of the paper's Figures 3-5 and 8 and honor the
/// physical hints (Figure 7 connector choices).
class PlansTest : public ::testing::Test {
 protected:
  PlansTest() : dfs_(dir_.Sub("dfs")) {
    config_.num_workers = 4;
    config_.worker_ram_bytes = 4u << 20;
    config_.temp_root = dir_.Sub("cluster");
    cluster_ = std::make_unique<SimulatedCluster>(config_);
    ctx_.program = &adapter_;
    ctx_.job_config = &job_;
    ctx_.cluster = cluster_.get();
    ctx_.dfs = &dfs_;
    ctx_.job_id = "plans-test";
    ctx_.partitions.resize(cluster_->num_partitions());
    ctx_.gs.num_vertices = 1000;
    ctx_.gs.live_vertices = 1000;
    ctx_.current_superstep = 2;
  }

  const ConnectorSpec* FindConnector(const JobSpec& spec, int src_output) {
    for (const ConnectorSpec& c : spec.connectors()) {
      if (c.src_op == 0 && c.src_output == src_output) return &c;
    }
    return nullptr;
  }

  TempDir dir_{"plans-test"};
  DistributedFileSystem dfs_;
  ClusterConfig config_;
  std::unique_ptr<SimulatedCluster> cluster_;
  SsspProgram program_{0};
  SsspProgram::Adapter adapter_{&program_};
  PregelixJobConfig job_;
  JobRuntimeContext ctx_;
};

TEST_F(PlansTest, SuperstepJobHasThreeOperatorsAndTwoFlows) {
  // SSSP declares no graph mutations, so its plan has no flow D6 and no
  // resolve: compute, combine, global-agg (Figures 3-5).
  JobSpec spec = BuildSuperstepJob(&ctx_);
  ASSERT_EQ(spec.ops().size(), 3u);
  ASSERT_EQ(spec.connectors().size(), 2u);
  // compute and combine are partitioned; global agg is single.
  EXPECT_EQ(spec.ops()[0].num_partitions, cluster_->num_partitions());
  EXPECT_EQ(spec.ops()[1].num_partitions, cluster_->num_partitions());
  EXPECT_EQ(spec.ops()[2].num_partitions, 1);
  for (const JobSpec::OpEntry& op : spec.ops()) {
    EXPECT_NE(op.descriptor->name(), "resolve");
  }

  // D3/D7 messages repartition by destination vid.
  const ConnectorSpec* msgs = FindConnector(spec, 0);
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->kind, ConnectorKind::kMToNPartition);
  EXPECT_EQ(msgs->key_field, 0);
  // D4/D5 contributions gather at one clone.
  const ConnectorSpec* contrib = FindConnector(spec, 1);
  ASSERT_NE(contrib, nullptr);
  EXPECT_EQ(contrib->kind, ConnectorKind::kMToOne);
  EXPECT_EQ(FindConnector(spec, 2), nullptr);
}

/// SSSP that declares graph mutations (it emits none): enough to get the
/// plan of a mutating program.
class DeclaredMutatingSssp : public SsspProgram {
 public:
  DeclaredMutatingSssp() : SsspProgram(0) {}
  bool mutates_graph() const override { return true; }
};

TEST_F(PlansTest, MutatingSuperstepJobHasFourOperatorsAndThreeFlows) {
  DeclaredMutatingSssp program;
  SsspProgram::Adapter adapter(&program);
  ctx_.program = &adapter;
  JobSpec spec = BuildSuperstepJob(&ctx_);
  // compute, combine, global-agg, resolve (Figures 3-5).
  ASSERT_EQ(spec.ops().size(), 4u);
  ASSERT_EQ(spec.connectors().size(), 3u);
  EXPECT_EQ(spec.ops()[3].descriptor->name(), "resolve");
  EXPECT_EQ(spec.ops()[3].num_partitions, cluster_->num_partitions());
  EXPECT_EQ(FindConnector(spec, 0)->kind, ConnectorKind::kMToNPartition);
  EXPECT_EQ(FindConnector(spec, 1)->kind, ConnectorKind::kMToOne);
  // D6 mutations repartition like the vertices.
  const ConnectorSpec* muts = FindConnector(spec, 2);
  ASSERT_NE(muts, nullptr);
  EXPECT_EQ(muts->kind, ConnectorKind::kMToNPartition);
  EXPECT_EQ(muts->dst_op, 3);
}

TEST_F(PlansTest, MergedConnectorHintSelectsMergingKind) {
  job_.groupby_connector = GroupByConnector::kMerged;
  JobSpec spec = BuildSuperstepJob(&ctx_);
  const ConnectorSpec* msgs = FindConnector(spec, 0);
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->kind, ConnectorKind::kMToNPartitionMerge);
}

TEST_F(PlansTest, JoinHintSelectsComputeOperator) {
  job_.join = JoinStrategy::kFullOuter;
  EXPECT_EQ(BuildSuperstepJob(&ctx_).ops()[0].descriptor->name(),
            "compute-full-outer-join");
  job_.join = JoinStrategy::kLeftOuter;
  EXPECT_EQ(BuildSuperstepJob(&ctx_).ops()[0].descriptor->name(),
            "compute-left-outer-join");
}

TEST_F(PlansTest, LoadJobScansThenPartitionsThenBulkLoads) {
  JobSpec spec = BuildLoadJob(&ctx_);
  ASSERT_EQ(spec.ops().size(), 2u);
  ASSERT_EQ(spec.connectors().size(), 1u);
  EXPECT_EQ(spec.connectors()[0].kind, ConnectorKind::kMToNPartition);
  EXPECT_EQ(spec.ops()[0].descriptor->name(), "scan-input");
  EXPECT_EQ(spec.ops()[1].descriptor->name(), "sort-bulkload");
}

TEST_F(PlansTest, UtilityJobsArePartitionLocal) {
  // Dump, checkpoint, and recovery move no data between partitions: they
  // are single-operator jobs with no connectors (sticky locality).
  EXPECT_EQ(BuildDumpJob(&ctx_).connectors().size(), 0u);
  EXPECT_EQ(BuildCheckpointJob(&ctx_, 3).connectors().size(), 0u);
  EXPECT_EQ(BuildRecoveryJob(&ctx_, 3).connectors().size(), 0u);
  EXPECT_EQ(BuildDumpJob(&ctx_).ops()[0].num_partitions,
            cluster_->num_partitions());
}

TEST_F(PlansTest, CheckpointDirsAreNamespacedPerJobAndSuperstep) {
  EXPECT_EQ(CheckpointDir(ctx_, 4), "jobs/plans-test/ckpt/4");
  EXPECT_NE(CheckpointDir(ctx_, 4), CheckpointDir(ctx_, 8));
}

}  // namespace
}  // namespace pregelix
