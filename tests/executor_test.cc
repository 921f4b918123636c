#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "dataflow/executor.h"
#include "dataflow/frame.h"
#include "dataflow/job.h"
#include "dataflow/operator.h"

namespace pregelix {
namespace {

/// Shared collection target for sink operators.
struct Collected {
  std::mutex mutex;
  std::map<int, std::vector<std::pair<int64_t, std::string>>> by_partition;

  void Add(int partition, int64_t key, std::string payload) {
    std::lock_guard<std::mutex> lock(mutex);
    by_partition[partition].emplace_back(key, std::move(payload));
  }
  size_t Total() {
    std::lock_guard<std::mutex> lock(mutex);
    size_t n = 0;
    for (auto& [p, v] : by_partition) n += v.size();
    return n;
  }
};

/// Source operator: every partition emits the same `count` (vid, payload)
/// tuples, vids 0..count-1 in key order, each payload naming its sender.
/// `sorted` declares that order (the verifier demands the declaration on
/// merge edges).
std::shared_ptr<OperatorDescriptor> MakeGenerator(int count,
                                                  bool sorted = false) {
  auto gen = std::make_shared<LambdaOperatorDescriptor>(
      "gen", [count](TaskContext& ctx) -> Status {
        for (int i = 0; i < count; ++i) {
          const std::string key = OrderedKeyI64(i);
          const std::string payload =
              "from-p" + std::to_string(ctx.partition);
          const Slice t[2] = {Slice(key), Slice(payload)};
          PREGELIX_RETURN_NOT_OK(ctx.output(0).Append(t));
        }
        return Status::OK();
      });
  if (sorted) {
    gen->DeclareOutput(
        0, {Sortedness::kSortedByKey, Partitioning::kArbitrary});
  }
  return gen;
}

/// Sink operator: drains input 0 into the Collected struct.
std::shared_ptr<OperatorDescriptor> MakeCollector() {
  return std::make_shared<LambdaOperatorDescriptor>(
      "collect", [](TaskContext& ctx) -> Status {
        auto* collected = static_cast<Collected*>(ctx.runtime_context);
        FrameTupleAccessor acc(2);
        std::string frame;
        while (ctx.input(0).Next(&frame)) {
          acc.Reset(Slice(frame));
          for (int t = 0; t < acc.tuple_count(); ++t) {
            collected->Add(ctx.partition,
                           DecodeOrderedI64(acc.field(t, 0).data()),
                           acc.field(t, 1).ToString());
          }
        }
        return Status::OK();
      });
}

class ExecutorTest : public ::testing::Test {
 protected:
  ClusterConfig MakeConfig(int workers) {
    ClusterConfig config;
    config.num_workers = workers;
    config.temp_root = dir_.Sub("cluster");
    config.frame_size = 1024;
    config.channel_capacity_frames = 4;
    return config;
  }

  /// Four sorted generators of 400 tuples each into four collectors over
  /// the m-to-n partitioning merging connector.
  static JobSpec MergingJob() {
    JobSpec spec;
    const int gen = spec.AddOperator(MakeGenerator(400, /*sorted=*/true), 4);
    const int sink = spec.AddOperator(MakeCollector(), 4);
    ConnectorSpec conn;
    conn.src_op = gen;
    conn.dst_op = sink;
    conn.kind = ConnectorKind::kMToNPartitionMerge;
    conn.field_count = 2;
    spec.Connect(conn);
    return spec;
  }

  TempDir dir_{"executor-test"};
};

// The m-to-n connector places an 8-byte key, an OrderedI64 vid, on
// partition vid mod P with negative vids mapped into [0, P), so Vertex and
// Msg tuples keyed by vid are co-partitioned and partition p holds every
// P-th vid. A key of any other width lands on its bytes' Hash64 mod P.
TEST_F(ExecutorTest, MToNPartitionRoutesVidsByResidueAndOtherKeysByHash) {
  constexpr int kPartitions = 4;
  SimulatedCluster cluster(MakeConfig(kPartitions));
  std::mutex mutex;
  std::map<int, std::vector<std::string>> keys_by_partition;
  auto gen = std::make_shared<LambdaOperatorDescriptor>(
      "gen", [](TaskContext& ctx) -> Status {
        for (int64_t vid = -250; vid < 250; ++vid) {
          // 8 bytes; 2 to 5 bytes ("k-250"); 11 to 14 bytes.
          const std::string keys[3] = {OrderedKeyI64(vid),
                                       "k" + std::to_string(vid),
                                       "vertex-id-" + std::to_string(vid)};
          for (const std::string& key : keys) {
            const Slice t[2] = {Slice(key), Slice("p")};
            PREGELIX_RETURN_NOT_OK(ctx.output(0).Append(t));
          }
        }
        const std::string extremes[2] = {
            OrderedKeyI64(std::numeric_limits<int64_t>::min()),
            OrderedKeyI64(std::numeric_limits<int64_t>::max())};
        for (const std::string& key : extremes) {
          const Slice t[2] = {Slice(key), Slice("p")};
          PREGELIX_RETURN_NOT_OK(ctx.output(0).Append(t));
        }
        return Status::OK();
      });
  auto sink = std::make_shared<LambdaOperatorDescriptor>(
      "collect-keys", [&](TaskContext& ctx) -> Status {
        FrameTupleAccessor acc(2);
        std::string frame;
        std::vector<std::string> keys;
        while (ctx.input(0).Next(&frame)) {
          acc.Reset(Slice(frame));
          for (int t = 0; t < acc.tuple_count(); ++t) {
            keys.push_back(acc.field(t, 0).ToString());
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        keys_by_partition[ctx.partition] = std::move(keys);
        return Status::OK();
      });
  JobSpec spec;
  spec.set_name("m2n");
  ConnectorSpec conn;
  conn.src_op = spec.AddOperator(gen, kPartitions);
  conn.dst_op = spec.AddOperator(sink, kPartitions);
  conn.kind = ConnectorKind::kMToNPartition;
  conn.field_count = 2;
  spec.Connect(conn);

  ASSERT_TRUE(RunJob(cluster, spec, nullptr).ok());
  size_t total = 0;
  for (const auto& [p, keys] : keys_by_partition) {
    total += keys.size();
    for (const std::string& key : keys) {
      uint64_t want;
      if (key.size() == 8) {
        const int64_t vid = DecodeOrderedI64(key.data());
        want = static_cast<uint64_t>((vid % kPartitions + kPartitions) %
                                     kPartitions);
      } else {
        want = Hash64(Slice(key)) % kPartitions;
      }
      EXPECT_EQ(want, static_cast<uint64_t>(p)) << "key of " << key.size()
                                                 << " bytes";
    }
  }
  // 4 generators x (500 x 3 + 2) tuples all arrive.
  EXPECT_EQ(total, 4u * 1502u);
  auto route = [&conn](int64_t vid, uint32_t n) {
    return conn.Route(Slice(OrderedKeyI64(vid)), n);
  };
  EXPECT_EQ(route(-1, 4), 3u);
  EXPECT_EQ(route(-4, 4), 0u);
  EXPECT_EQ(route(std::numeric_limits<int64_t>::min(), 4), 0u);
  EXPECT_EQ(route(std::numeric_limits<int64_t>::max(), 4), 3u);
  EXPECT_EQ(route(std::numeric_limits<int64_t>::min(), 3), 1u);
}

TEST_F(ExecutorTest, MToOneGathersEverything) {
  SimulatedCluster cluster(MakeConfig(3));
  Collected collected;
  JobSpec spec;
  const int gen = spec.AddOperator(MakeGenerator(100), 3);
  const int sink = spec.AddOperator(MakeCollector(), 1);
  ConnectorSpec conn;
  conn.src_op = gen;
  conn.dst_op = sink;
  conn.kind = ConnectorKind::kMToOne;
  spec.Connect(conn);

  ASSERT_TRUE(RunJob(cluster, spec, &collected).ok());
  EXPECT_EQ(collected.Total(), 300u);
  EXPECT_EQ(collected.by_partition.size(), 1u);
  EXPECT_EQ(collected.by_partition[0].size(), 300u);
}

TEST_F(ExecutorTest, OneToOneStaysLocal) {
  SimulatedCluster cluster(MakeConfig(3));
  Collected collected;
  JobSpec spec;
  const int gen = spec.AddOperator(MakeGenerator(50), 3);
  const int sink = spec.AddOperator(MakeCollector(), 3);
  ConnectorSpec conn;
  conn.src_op = gen;
  conn.dst_op = sink;
  conn.kind = ConnectorKind::kOneToOne;
  spec.Connect(conn);

  ASSERT_TRUE(RunJob(cluster, spec, &collected).ok());
  EXPECT_EQ(collected.Total(), 150u);
  // Each partition received exactly its own generator's tuples.
  for (int p = 0; p < 3; ++p) {
    ASSERT_EQ(collected.by_partition[p].size(), 50u);
    for (auto& [vid, payload] : collected.by_partition[p]) {
      EXPECT_EQ(payload, "from-p" + std::to_string(p));
    }
  }
}

TEST_F(ExecutorTest, MergingConnectorDeliversSortedStreams) {
  SimulatedCluster cluster(MakeConfig(4));
  Collected collected;
  ASSERT_TRUE(RunJob(cluster, MergingJob(), &collected).ok());
  EXPECT_EQ(collected.Total(), 1600u);
  // Each of the four senders sends every key once, so each key a receiver
  // holds arrives four times: keys in order, and equal keys in sender
  // order, sender 0 first.
  for (auto& [p, tuples] : collected.by_partition) {
    ASSERT_EQ(tuples.size() % 4, 0u) << "partition " << p;
    for (size_t i = 0; i < tuples.size(); ++i) {
      EXPECT_EQ(tuples[i].second, "from-p" + std::to_string(i % 4))
          << "partition " << p << " at " << i;
      if (i % 4 != 0) {
        EXPECT_EQ(tuples[i - 1].first, tuples[i].first)
            << "partition " << p << " at " << i;
      } else if (i > 0) {
        EXPECT_LT(tuples[i - 1].first, tuples[i].first)
            << "partition " << p << " out of order at " << i;
      }
    }
  }
}

// "sort.merge.refill" belongs to the sort merge: a merging-connector
// receive runs the same loser tree but never hits it.
TEST_F(ExecutorTest, MergingConnectorNeverHitsTheSortRefillFaultPoint) {
  fault::FaultSpec fail_first;
  fail_first.trigger = fault::Trigger::kNthHit;
  fail_first.n = 1;
  fault::FaultInjector::Global().Arm("sort.merge.refill", fail_first);
  SimulatedCluster cluster(MakeConfig(4));
  Collected collected;
  const Status s = RunJob(cluster, MergingJob(), &collected);
  const fault::PointStats stats =
      fault::FaultInjector::Global().Stats("sort.merge.refill");
  fault::FaultInjector::Global().Reset();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(collected.Total(), 1600u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(ExecutorTest, BackpressureDoesNotDeadlockPipelines) {
  // Tiny channels, big data: senders must block and resume correctly.
  ClusterConfig config = MakeConfig(2);
  config.channel_capacity_frames = 1;
  config.frame_size = 256;
  SimulatedCluster cluster(config);
  Collected collected;
  JobSpec spec;
  const int gen = spec.AddOperator(MakeGenerator(3000), 2);
  const int sink = spec.AddOperator(MakeCollector(), 2);
  ConnectorSpec conn;
  conn.src_op = gen;
  conn.dst_op = sink;
  conn.kind = ConnectorKind::kMToNPartition;
  spec.Connect(conn);

  ASSERT_TRUE(RunJob(cluster, spec, &collected).ok());
  EXPECT_EQ(collected.Total(), 6000u);
}

TEST_F(ExecutorTest, FailingOperatorAbortsJob) {
  SimulatedCluster cluster(MakeConfig(2));
  Collected collected;
  JobSpec spec;
  spec.set_name("failing-job");
  const int gen = spec.AddOperator(MakeGenerator(100000), 2);
  auto failing = std::make_shared<LambdaOperatorDescriptor>(
      "boom", [](TaskContext& ctx) -> Status {
        std::string frame;
        ctx.input(0).Next(&frame);
        return Status::Internal("synthetic failure");
      });
  const int sink = spec.AddOperator(failing, 2);
  ConnectorSpec conn;
  conn.src_op = gen;
  conn.dst_op = sink;
  conn.kind = ConnectorKind::kMToNPartition;
  spec.Connect(conn);

  Status s = RunJob(cluster, spec, &collected);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("synthetic failure"), std::string::npos);
  EXPECT_NE(s.message().find("failing-job"), std::string::npos);
}

// Activations run on the cluster's long-lived task threads. One that an
// injected channel.send error fails hands its thread back like any other:
// the next job succeeds on the same threads and none is started or lost.
TEST_F(ExecutorTest, PoolOutlivesAFailedActivation) {
  SimulatedCluster cluster(MakeConfig(2));
  auto run = [&cluster](Collected* collected) {
    JobSpec spec;
    spec.set_name("pooled-job");
    const int gen = spec.AddOperator(MakeGenerator(1000), 2);
    const int sink = spec.AddOperator(MakeCollector(), 2);
    ConnectorSpec conn;
    conn.src_op = gen;
    conn.dst_op = sink;
    conn.kind = ConnectorKind::kMToNPartition;
    spec.Connect(conn);
    return RunJob(cluster, spec, collected);
  };
  EXPECT_EQ(cluster.threads_started(), 0u);
  Collected warm;
  ASSERT_TRUE(run(&warm).ok());
  EXPECT_EQ(cluster.threads_started(), 4u);  // one per activation

  fault::FaultInjector::Global().Arm("channel.send", fault::FaultSpec{});
  Collected failed;
  const Status s = run(&failed);
  fault::FaultInjector::Global().Reset();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_NE(s.message().find("pooled-job/gen["), std::string::npos)
      << s.ToString();

  Collected after;
  ASSERT_TRUE(run(&after).ok());
  EXPECT_EQ(after.Total(), 2000u);
  EXPECT_EQ(cluster.threads_started(), 4u);
}

TEST_F(ExecutorTest, TwoStagePipelineWithBranches) {
  // gen --(m2n)--> relay --(m2one)--> sink   and relay also counts locally.
  SimulatedCluster cluster(MakeConfig(2));
  Collected collected;
  JobSpec spec;
  const int gen = spec.AddOperator(MakeGenerator(100), 2);
  auto relay = std::make_shared<LambdaOperatorDescriptor>(
      "relay", [](TaskContext& ctx) -> Status {
        FrameTupleAccessor acc(2);
        std::string frame;
        while (ctx.input(0).Next(&frame)) {
          acc.Reset(Slice(frame));
          for (int t = 0; t < acc.tuple_count(); ++t) {
            const Slice fields[2] = {acc.field(t, 0), acc.field(t, 1)};
            PREGELIX_RETURN_NOT_OK(ctx.output(0).Append(fields));
          }
        }
        return Status::OK();
      });
  const int mid = spec.AddOperator(relay, 2);
  const int sink = spec.AddOperator(MakeCollector(), 1);
  ConnectorSpec c1;
  c1.src_op = gen;
  c1.dst_op = mid;
  c1.kind = ConnectorKind::kMToNPartition;
  spec.Connect(c1);
  ConnectorSpec c2;
  c2.src_op = mid;
  c2.dst_op = sink;
  c2.kind = ConnectorKind::kMToOne;
  spec.Connect(c2);

  ASSERT_TRUE(RunJob(cluster, spec, &collected).ok());
  EXPECT_EQ(collected.Total(), 200u);
}

TEST_F(ExecutorTest, NetworkBytesMeteredForCrossWorkerTraffic) {
  SimulatedCluster cluster(MakeConfig(2));
  Collected collected;
  JobSpec spec;
  const int gen = spec.AddOperator(MakeGenerator(2000), 2);
  const int sink = spec.AddOperator(MakeCollector(), 2);
  ConnectorSpec conn;
  conn.src_op = gen;
  conn.dst_op = sink;
  conn.kind = ConnectorKind::kMToNPartition;
  spec.Connect(conn);

  ASSERT_TRUE(RunJob(cluster, spec, &collected).ok());
  uint64_t net = 0;
  for (const auto& snap : cluster.SnapshotAll()) net += snap.net_bytes;
  EXPECT_GT(net, 0u);
}

TEST_F(ExecutorTest, OversizedTuplesCrossConnectors) {
  SimulatedCluster cluster(MakeConfig(2));
  Collected collected;
  JobSpec spec;
  auto gen = std::make_shared<LambdaOperatorDescriptor>(
      "gen-big", [](TaskContext& ctx) -> Status {
        // A payload far larger than the frame size (1 KB frames).
        const std::string huge(10000, 'x');
        const std::string key = OrderedKeyI64(ctx.partition);
        const Slice t[2] = {Slice(key), Slice(huge)};
        return ctx.output(0).Append(t);
      });
  const int g = spec.AddOperator(gen, 2);
  const int sink = spec.AddOperator(MakeCollector(), 2);
  ConnectorSpec conn;
  conn.src_op = g;
  conn.dst_op = sink;
  conn.kind = ConnectorKind::kMToNPartition;
  spec.Connect(conn);

  ASSERT_TRUE(RunJob(cluster, spec, &collected).ok());
  ASSERT_EQ(collected.Total(), 2u);
  for (auto& [p, tuples] : collected.by_partition) {
    for (auto& [vid, payload] : tuples) {
      EXPECT_EQ(payload.size(), 10000u);
    }
  }
}

}  // namespace
}  // namespace pregelix
