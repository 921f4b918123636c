// Microbenchmarks (google-benchmark) for the dataflow substrate: frame
// encode/decode, the group-by family (sort, hash-sort, dense), external
// sorting, the k-way merge (loser tree, varying fan-in), the
// normalized-key comparison kernel, the typed compute call, and the fixed
// cost of one superstep-shaped job through the executor.
// Supporting numbers for the operator choices of paper Sections 4 and
// 5.3.1, and the before/after record in BENCH_kernels.json (DESIGN.md §13).
//
// Machine-readable output: run with
//   --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
// (the `bench_smoke` ctest target does exactly this for one iteration).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "algorithms/pagerank.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/slice.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dataflow/executor.h"
#include "dataflow/frame.h"
#include "dataflow/ops/sort.h"
#include "pregel/program.h"

namespace pregelix {
namespace {

GroupCombiner SumCombiner() {
  GroupCombiner c;
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [](const Slice& payload, std::string* acc) {
    const double sum = DecodeDouble(acc->data()) + DecodeDouble(payload.data());
    acc->clear();
    PutDouble(acc, sum);
  };
  c.width = sizeof(double);
  c.fold = [](char* acc, const char* in) {
    const double sum = DecodeDouble(acc) + DecodeDouble(in);
    std::memcpy(acc, &sum, sizeof(sum));
  };
  return c;
}

void BM_FrameAppend(benchmark::State& state) {
  FrameTupleAppender appender(32 * 1024, 2);
  const std::string key = OrderedKeyI64(42);
  const std::string payload(16, 'p');
  const Slice fields[2] = {Slice(key), Slice(payload)};
  for (auto _ : state) {
    if (!appender.Append(fields)) {
      benchmark::DoNotOptimize(appender.Take());
      appender.Append(fields);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameAppend);

void BM_FrameFieldAccess(benchmark::State& state) {
  FrameTupleAppender appender(32 * 1024, 2);
  const std::string key = OrderedKeyI64(42);
  const std::string payload(16, 'p');
  const Slice fields[2] = {Slice(key), Slice(payload)};
  while (appender.Append(fields)) {
  }
  const std::string frame = appender.Take();
  FrameTupleAccessor accessor(2);
  accessor.Reset(Slice(frame));
  const int n = accessor.tuple_count();
  int t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(accessor.field(t, 1));
    t = (t + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameFieldAccess);

enum class GroupByMode { kSort, kHashSort, kDense, kDenseByVid };

/// Groups 100,000 messages to `distinct` keys 0, stride, 2·stride, ...; a
/// dense grouper holds one slot per key, as a receiving partition holds
/// every stride-th vid.
void GroupByBench(benchmark::State& state, GroupByMode mode,
                  int64_t distinct, int64_t stride = 1) {
  TempDir dir("micro-gb");
  for (auto _ : state) {
    SortConfig config;
    config.memory_budget_bytes = 4 << 20;
    config.frame_size = 32 * 1024;
    config.scratch_prefix = dir.path() + "/gb";
    Random rnd(7);
    std::string payload;
    const int n = 100000;
    auto drain = [](Grouper& grouper) {
      int64_t groups = 0;
      PREGELIX_CHECK(grouper
                         .Finish([&](std::span<const Slice>) {
                           ++groups;
                           return Status::OK();
                         })
                         .ok());
      benchmark::DoNotOptimize(groups);
    };
    auto feed = [&](auto& grouper) {
      for (int i = 0; i < n; ++i) {
        const std::string key = OrderedKeyI64(
            static_cast<int64_t>(rnd.Uniform(distinct)) * stride);
        payload.clear();
        PutDouble(&payload, 1.0);
        const Slice fields[2] = {Slice(key), Slice(payload)};
        PREGELIX_CHECK(grouper.Add(fields).ok());
      }
      drain(grouper);
    };
    if (mode == GroupByMode::kHashSort) {
      HashSortGrouper grouper(config, SumCombiner());
      feed(grouper);
    } else if (mode == GroupByMode::kDense) {
      DenseGrouper grouper(config, SumCombiner(), /*lo=*/0,
                           static_cast<uint64_t>(distinct),
                           static_cast<uint64_t>(stride));
      feed(grouper);
    } else if (mode == GroupByMode::kDenseByVid) {
      DenseGrouper grouper(config, SumCombiner(), /*lo=*/0,
                           static_cast<uint64_t>(distinct));
      for (int i = 0; i < n; ++i) {
        payload.clear();
        PutDouble(&payload, 1.0);
        PREGELIX_CHECK(
            grouper.AddVid(static_cast<int64_t>(rnd.Uniform(distinct)),
                           payload.data())
                .ok());
      }
      drain(grouper);
    } else {
      ExternalSortGrouper grouper(config, SumCombiner());
      feed(grouper);
    }
    state.SetItemsProcessed(state.items_processed() + n);
  }
}

void BM_SortGroupByFewGroups(benchmark::State& state) {
  GroupByBench(state, GroupByMode::kSort, /*distinct=*/256);
}
BENCHMARK(BM_SortGroupByFewGroups)->Unit(benchmark::kMillisecond);

void BM_HashSortGroupByFewGroups(benchmark::State& state) {
  // The paper: HashSort wins when the number of groups is small.
  GroupByBench(state, GroupByMode::kHashSort, /*distinct=*/256);
}
BENCHMARK(BM_HashSortGroupByFewGroups)->Unit(benchmark::kMillisecond);

void BM_SortGroupByManyGroups(benchmark::State& state) {
  GroupByBench(state, GroupByMode::kSort, /*distinct=*/100000);
}
BENCHMARK(BM_SortGroupByManyGroups)->Unit(benchmark::kMillisecond);

void BM_HashSortGroupByManyGroups(benchmark::State& state) {
  GroupByBench(state, GroupByMode::kHashSort, /*distinct=*/100000);
}
BENCHMARK(BM_HashSortGroupByManyGroups)->Unit(benchmark::kMillisecond);

void BM_DenseGroupByManyGroups(benchmark::State& state) {
  // One slot per key of 0..99,999: the 812 KB array fits the 4 MB budget.
  GroupByBench(state, GroupByMode::kDense, /*distinct=*/100000);
}
BENCHMARK(BM_DenseGroupByManyGroups)->Unit(benchmark::kMillisecond);

void BM_DenseGroupByStrided(benchmark::State& state) {
  // The same 100,000 slots as one receiving partition of 4 holds them, every
  // fourth vid: each Add also divides by the stride and checks the residue.
  GroupByBench(state, GroupByMode::kDense, /*distinct=*/100000, /*stride=*/4);
}
BENCHMARK(BM_DenseGroupByStrided)->Unit(benchmark::kMillisecond);

void BM_DenseGroupByAddVid(benchmark::State& state) {
  // The same messages through AddVid, as the compute operator sends them:
  // no key string is built, encoded or decoded.
  GroupByBench(state, GroupByMode::kDenseByVid, /*distinct=*/100000);
}
BENCHMARK(BM_DenseGroupByAddVid)->Unit(benchmark::kMillisecond);

/// Counts the messages of a compute call and keeps a checksum of them.
class ChecksumSink final : public MessageSink {
 public:
  Status Send(int64_t dst, const Slice& payload) override {
    sum_ += static_cast<uint64_t>(dst) + static_cast<uint8_t>(payload[0]);
    return Status::OK();
  }
  uint64_t sum() const { return sum_; }

 private:
  uint64_t sum_ = 0;
};

void BM_TypedComputePageRank(benchmark::State& state) {
  // One PageRank compute call (superstep 2, one combined message in) on a
  // stored record with 8 edges: decode, the UDF, the record encode and
  // 8 messages handed to the sink. Reported per vertex.
  PageRankProgram program(/*iterations=*/30);
  PageRankProgram::Adapter adapter(&program);
  std::string record;
  PREGELIX_CHECK(
      adapter.InitialVertex(42, {3, 14, 15, 92, 65, 35, 89, 79}, &record)
          .ok());
  const std::string message = SerializeValue<double>(0.25);
  const std::string aggregate = SerializeValue<double>(0.0);
  ComputeInput input;
  input.vid = 42;
  input.vertex_exists = true;
  input.vertex_bytes = Slice(record);
  input.has_messages = true;
  input.message_payload = Slice(message);
  input.superstep = 2;
  input.global_aggregate = Slice(aggregate);
  input.num_vertices = 100000;
  input.num_edges = 800000;
  ComputeOutput output;
  ChecksumSink sink;
  output.sink = &sink;
  for (auto _ : state) {
    output.Clear();
    PREGELIX_CHECK(adapter.Compute(input, &output).ok());
    benchmark::DoNotOptimize(output.vertex_bytes.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(sink.sum());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TypedComputePageRank);

void BM_RunJobNoopSuperstep(benchmark::State& state) {
  // One superstep-shaped job through RunJob on a standing 4-worker
  // cluster: 4 compute-like sources feeding 4 combine-like sinks over an
  // m-to-n connector and one global-agg-like sink over an m-to-one
  // connector, none of which emits a tuple. What is left is the executor's
  // fixed cost per job: admission, channels, task build, 9 activations and
  // the barrier. Reported per job.
  TempDir dir("micro-runjob");
  ClusterConfig config;
  config.num_workers = 4;
  config.temp_root = dir.Sub("cluster");
  SimulatedCluster cluster(config);
  auto noop = [](TaskContext&) { return Status::OK(); };
  auto compute = std::make_shared<LambdaOperatorDescriptor>("compute", noop);
  compute->DeclarePorts(0, 2);
  auto combine = std::make_shared<LambdaOperatorDescriptor>("combine", noop);
  combine->DeclarePorts(1, 0)->DeclareInput(
      0, {Sortedness::kUnsorted, Partitioning::kHashByKey});
  auto global = std::make_shared<LambdaOperatorDescriptor>("global", noop);
  global->DeclarePorts(1, 0)->DeclareInput(
      0, {Sortedness::kUnsorted, Partitioning::kSingleton});
  JobSpec spec;
  spec.set_name("noop-superstep");
  const int partitions = cluster.num_partitions();
  ConnectorSpec msgs;
  msgs.src_op = spec.AddOperator(compute, partitions);
  msgs.dst_op = spec.AddOperator(combine, partitions);
  msgs.kind = ConnectorKind::kMToNPartition;
  spec.Connect(msgs);
  ConnectorSpec contrib;
  contrib.src_op = msgs.src_op;
  contrib.src_output = 1;
  contrib.dst_op = spec.AddOperator(global, 1);
  contrib.kind = ConnectorKind::kMToOne;
  spec.Connect(contrib);
  for (auto _ : state) {
    PREGELIX_CHECK(RunJob(cluster, spec).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunJobNoopSuperstep)->Unit(benchmark::kMicrosecond);

void BM_ExternalSortSpilling(benchmark::State& state) {
  TempDir dir("micro-sort");
  for (auto _ : state) {
    SortConfig config;
    config.memory_budget_bytes = 256 * 1024;  // forces spills
    config.frame_size = 32 * 1024;
    config.scratch_prefix = dir.path() + "/s";
    ExternalSortGrouper sorter(config);
    Random rnd(8);
    const int n = 100000;
    const std::string payload(16, 'p');
    for (int i = 0; i < n; ++i) {
      const std::string key =
          OrderedKeyI64(static_cast<int64_t>(rnd.Next() & 0x7fffffff));
      const Slice fields[2] = {Slice(key), Slice(payload)};
      PREGELIX_CHECK(sorter.Add(fields).ok());
    }
    int64_t out = 0;
    PREGELIX_CHECK(sorter
                       .Finish([&](std::span<const Slice>) {
                         ++out;
                         return Status::OK();
                       })
                       .ok());
    benchmark::DoNotOptimize(out);
    state.SetItemsProcessed(state.items_processed() + n);
  }
}
BENCHMARK(BM_ExternalSortSpilling)->Unit(benchmark::kMillisecond);

// K-way merge through the loser tree: a tiny batch budget manufactures
// dozens of sorted runs, then Finish (the timed part) merges them at the
// configured fan-in. Fan-ins above the run count measure one wide pass;
// small fan-ins add intermediate passes. Feeding is untimed.
void BM_MergeFanin(benchmark::State& state) {
  const int fanin = static_cast<int>(state.range(0));
  TempDir dir("micro-merge");
  const int n = 100000;
  for (auto _ : state) {
    state.PauseTiming();
    SortConfig config;
    config.memory_budget_bytes = 64 * 1024;  // ~40 runs of ~2.5k tuples
    config.frame_size = 32 * 1024;
    config.scratch_prefix = dir.path() + "/m";
    config.merge_fanin = fanin;
    ExternalSortGrouper sorter(config);
    Random rnd(11);
    const std::string payload(16, 'p');
    for (int i = 0; i < n; ++i) {
      const std::string key =
          OrderedKeyI64(static_cast<int64_t>(rnd.Next() & 0xffffff));
      const Slice fields[2] = {Slice(key), Slice(payload)};
      PREGELIX_CHECK(sorter.Add(fields).ok());
    }
    state.ResumeTiming();
    int64_t out = 0;
    PREGELIX_CHECK(sorter
                       .Finish([&](std::span<const Slice>) {
                         ++out;
                         return Status::OK();
                       })
                       .ok());
    benchmark::DoNotOptimize(out);
    state.SetItemsProcessed(state.items_processed() + n);
  }
}
BENCHMARK(BM_MergeFanin)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// The comparison kernel in isolation: sorting an index array over 64k
// 8-byte ordered keys with the plain Slice comparator vs. the cached
// normalized-prefix comparator used by DrainBatchSorted. The spread between
// the two is the per-comparison saving every batch sort gets.
void KeySortBench(benchmark::State& state, bool normalized) {
  const int n = 64 * 1024;
  Random rnd(12);
  std::string pool;
  std::vector<uint64_t> norms;
  pool.reserve(8u * n);
  for (int i = 0; i < n; ++i) {
    const std::string key =
        OrderedKeyI64(static_cast<int64_t>(rnd.Next() & 0xffffffff));
    pool.append(key);
    norms.push_back(NormalizedKeyPrefix(Slice(key)));
  }
  auto key_at = [&](uint32_t i) { return Slice(pool.data() + 8u * i, 8); };
  std::vector<uint32_t> order(n);
  for (auto _ : state) {
    std::iota(order.begin(), order.end(), 0u);
    if (normalized) {
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (norms[a] != norms[b]) return norms[a] < norms[b];
        return key_at(a).compare(key_at(b)) < 0;
      });
    } else {
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return key_at(a).compare(key_at(b)) < 0;
      });
    }
    benchmark::DoNotOptimize(order.data());
    state.SetItemsProcessed(state.items_processed() + n);
  }
}

void BM_KeySortSliceCompare(benchmark::State& state) {
  KeySortBench(state, /*normalized=*/false);
}
BENCHMARK(BM_KeySortSliceCompare)->Unit(benchmark::kMillisecond);

void BM_KeySortNormalizedPrefix(benchmark::State& state) {
  KeySortBench(state, /*normalized=*/true);
}
BENCHMARK(BM_KeySortNormalizedPrefix)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pregelix

BENCHMARK_MAIN();
