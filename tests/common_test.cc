#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/slice.h"
#include "common/status.h"

namespace pregelix {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::IoError("disk gone"); };
  auto outer = [&]() -> Status {
    PREGELIX_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIoError());
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("hello world").starts_with(Slice("hello")));
  EXPECT_FALSE(Slice("he").starts_with(Slice("hello")));
}

TEST(SliceTest, EmptySlices) {
  Slice a, b;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.compare(b), 0);
  EXPECT_TRUE(a.empty());
}

TEST(SerdeTest, Fixed32RoundTrip) {
  char buf[4];
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EncodeFixed32(buf, v);
    EXPECT_EQ(DecodeFixed32(buf), v);
  }
}

TEST(SerdeTest, Fixed64RoundTrip) {
  char buf[8];
  for (uint64_t v : {0ull, 1ull, 0xdeadbeefcafebabeull, ~0ull}) {
    EncodeFixed64(buf, v);
    EXPECT_EQ(DecodeFixed64(buf), v);
  }
}

TEST(SerdeTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice("world!"));
  Slice input(buf);
  Slice out;
  ASSERT_TRUE(GetLengthPrefixed(&input, &out));
  EXPECT_EQ(out.ToString(), "hello");
  ASSERT_TRUE(GetLengthPrefixed(&input, &out));
  EXPECT_EQ(out.ToString(), "");
  ASSERT_TRUE(GetLengthPrefixed(&input, &out));
  EXPECT_EQ(out.ToString(), "world!");
  EXPECT_FALSE(GetLengthPrefixed(&input, &out));
}

TEST(SerdeTest, GetLengthPrefixedRejectsTruncation) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  buf.resize(buf.size() - 2);
  Slice input(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&input, &out));
}

TEST(SerdeTest, OrderedI64PreservesOrder) {
  std::vector<int64_t> values = {-1000000, -1, 0, 1, 2, 42, 1000000,
                                 INT64_MIN, INT64_MAX};
  std::sort(values.begin(), values.end());
  for (size_t i = 1; i < values.size(); ++i) {
    const std::string a = OrderedKeyI64(values[i - 1]);
    const std::string b = OrderedKeyI64(values[i]);
    EXPECT_LT(Slice(a).compare(Slice(b)), 0)
        << values[i - 1] << " vs " << values[i];
  }
  for (int64_t v : values) {
    EXPECT_EQ(DecodeOrderedI64(OrderedKeyI64(v).data()), v);
  }
}

TEST(HashTest, DeterministicAndSpreads) {
  EXPECT_EQ(Hash64(Slice("abc")), Hash64(Slice("abc")));
  EXPECT_NE(Hash64(Slice("abc")), Hash64(Slice("abd")));
  EXPECT_NE(Hash64(Slice("abc"), 1), Hash64(Slice("abc"), 2));
  // Vid hashing should spread consecutive ids across 8 partitions.
  std::set<uint64_t> buckets;
  for (int64_t vid = 0; vid < 64; ++vid) {
    buckets.insert(HashVid(vid) % 8);
  }
  EXPECT_EQ(buckets.size(), 8u);
}

TEST(RandomTest, DeterministicWithSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, SkewedFavorsSmallValues) {
  Random r(3);
  uint64_t small = 0, total = 100000;
  for (uint64_t i = 0; i < total; ++i) {
    if (r.Skewed(1000000) < 1000) ++small;
  }
  // A power-law with theta≈0.99 puts far more than 0.1% of the mass on the
  // first 0.1% of values.
  EXPECT_GT(small, total / 10);
}

TEST(MetricsTest, SnapshotDeltaAndCostModel) {
  WorkerMetrics m;
  MetricsSnapshot before = m.Snapshot();
  m.AddCpuOps(1'000'000);      // 1 s of CPU at default rate
  m.AddDiskRead(100'000'000);  // 1 s of disk
  m.AddNet(117'000'000);       // 1 s of network
  m.AddSeeks(200);             // 1 s of seeks
  MetricsSnapshot delta = m.Snapshot() - before;
  CostModelParams params;
  EXPECT_NEAR(SimulatedWorkerSeconds(delta, params), 4.0, 1e-9);
}

TEST(MetricsTest, StepTimeIsMaxAcrossWorkersPlusBarrier) {
  CostModelParams params;
  params.barrier_sec = 0.5;
  params.per_worker_coord_sec = 0.0;
  MetricsSnapshot fast, slow;
  fast.cpu_ops = 1'000'000;        // 1 s
  slow.cpu_ops = 3'000'000;        // 3 s
  const double t = SimulatedStepSeconds({fast, slow}, params);
  EXPECT_NEAR(t, 3.5, 1e-9);
}

TEST(MetricsTest, SnapshotWhileAddingIsSafeAndResetIsAtomic) {
  // Concurrency smoke test: writers hammer the counters while a reader
  // snapshots and occasionally resets. Under TSan this catches any regression
  // to non-atomic accesses; everywhere it checks snapshots stay coherent
  // (monotone between resets, never torn past the per-writer total).
  WorkerMetrics m;
  constexpr int kWriters = 3;
  constexpr uint64_t kAddsPerWriter = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&m]() {
      for (uint64_t i = 0; i < kAddsPerWriter; ++i) {
        m.AddCpuOps(1);
        m.AddNet(2);
      }
    });
  }
  std::thread reader([&m, &done]() {
    while (!done.load(std::memory_order_relaxed)) {
      MetricsSnapshot s = m.Snapshot();
      EXPECT_LE(s.cpu_ops, kWriters * kAddsPerWriter);
      EXPECT_LE(s.net_bytes, 2 * kWriters * kAddsPerWriter);
    }
  });
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  MetricsSnapshot total = m.Snapshot();
  EXPECT_EQ(total.cpu_ops, kWriters * kAddsPerWriter);
  EXPECT_EQ(total.net_bytes, 2 * kWriters * kAddsPerWriter);
  m.Reset();
  MetricsSnapshot zero = m.Snapshot();
  EXPECT_EQ(zero.cpu_ops, 0u);
  EXPECT_EQ(zero.net_bytes, 0u);
  EXPECT_EQ(zero.disk_read_bytes, 0u);
  EXPECT_EQ(zero.disk_write_bytes, 0u);
  EXPECT_EQ(zero.disk_seeks, 0u);
}

TEST(ConfigTest, DeriveFillsBudgetsFromWorkerRam) {
  ClusterConfig c;
  c.worker_ram_bytes = 16u << 20;
  c.page_size = 4096;
  c.frame_size = 32 * 1024;
  ClusterConfig d = c.Derive();
  EXPECT_EQ(d.buffer_cache_pages, (16u << 20) / 4 / 4096);
  EXPECT_EQ(d.groupby_memory_bytes, (16u << 20) / 16);
  EXPECT_EQ(d.aggregate_ram_bytes(), 4 * (16ull << 20));
}

}  // namespace
}  // namespace pregelix
