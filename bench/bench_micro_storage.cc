// Microbenchmarks (google-benchmark) for the storage substrate: B-tree and
// LSM B-tree operations under an ample and a starved buffer cache. These are
// supporting numbers for the access-method choices of paper Section 4.

#include <benchmark/benchmark.h>

#include <memory>

#include "buffer/buffer_cache.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "storage/btree.h"
#include "storage/lsm_btree.h"

namespace pregelix {
namespace {

constexpr size_t kPage = 4096;

struct BTreeFixture {
  BTreeFixture(size_t cache_pages, int preload)
      : dir("micro-btree"), cache(kPage, cache_pages, nullptr) {
    Status s = BTree::Open(&cache, dir.path() + "/t", &tree);
    PREGELIX_CHECK(s.ok());
    auto loader = tree->NewBulkLoader();
    for (int64_t vid = 0; vid < preload; ++vid) {
      PREGELIX_CHECK(
          loader->Add(OrderedKeyI64(vid), std::string(64, 'v')).ok());
    }
    PREGELIX_CHECK(loader->Finish().ok());
  }
  TempDir dir;
  WorkerMetrics metrics;
  BufferCache cache;
  std::unique_ptr<BTree> tree;
};

void BM_BTreeUpsertSequential(benchmark::State& state) {
  BTreeFixture f(/*cache_pages=*/4096, /*preload=*/0);
  int64_t vid = 0;
  const std::string value(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tree->Upsert(OrderedKeyI64(vid++), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeUpsertSequential);

void BM_BTreeUpsertRandom(benchmark::State& state) {
  BTreeFixture f(4096, 0);
  Random rnd(1);
  const std::string value(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree->Upsert(OrderedKeyI64(rnd.Uniform(1 << 20)), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeUpsertRandom);

void BM_BTreeGetHot(benchmark::State& state) {
  BTreeFixture f(4096, 100000);
  Random rnd(2);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree->Get(OrderedKeyI64(rnd.Uniform(100000)), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGetHot);

void BM_BTreeGetColdCache(benchmark::State& state) {
  // 32 pages of cache against a ~7000-page tree: every probe mostly misses.
  BTreeFixture f(/*cache_pages=*/32, /*preload=*/200000);
  Random rnd(3);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree->Get(OrderedKeyI64(rnd.Uniform(200000)), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGetColdCache);

void BM_BTreeFullScan(benchmark::State& state) {
  BTreeFixture f(4096, 100000);
  for (auto _ : state) {
    auto it = f.tree->NewIterator();
    PREGELIX_CHECK(it->SeekToFirst().ok());
    int64_t count = 0;
    while (it->Valid()) {
      ++count;
      PREGELIX_CHECK(it->Next().ok());
    }
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.items_processed() + count);
  }
}
BENCHMARK(BM_BTreeFullScan)->Unit(benchmark::kMillisecond);

void BM_BTreeScanUpdateInPlace(benchmark::State& state) {
  // The full-outer join's write-back: a scan that overwrites each current
  // record with a same-length value through the cursor that read it.
  BTreeFixture f(4096, 100000);
  const std::string value(64, 'u');
  for (auto _ : state) {
    auto it = f.tree->NewIterator();
    PREGELIX_CHECK(it->SeekToFirst().ok());
    int64_t count = 0;
    while (it->Valid()) {
      bool written = false;
      PREGELIX_CHECK(it->TryOverwriteValue(value, &written).ok() && written);
      ++count;
      PREGELIX_CHECK(it->Next().ok());
    }
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.items_processed() + count);
  }
}
BENCHMARK(BM_BTreeScanUpdateInPlace)->Unit(benchmark::kMillisecond);

void BM_BTreeSortedProbeSweep(benchmark::State& state) {
  // The left-outer join's probe: a forward Seek of one cursor to every 4th
  // key, in key order, and a same-length overwrite through it.
  BTreeFixture f(4096, 100000);
  const std::string update(64, 'p');
  for (auto _ : state) {
    auto it = f.tree->NewIterator();
    int64_t count = 0;
    for (int64_t vid = 0; vid < 100000; vid += 4) {
      PREGELIX_CHECK(it->Seek(OrderedKeyI64(vid)).ok() && it->Valid());
      benchmark::DoNotOptimize(it->value().data());
      bool written = false;
      PREGELIX_CHECK(it->TryOverwriteValue(update, &written).ok() && written);
      ++count;
    }
    state.SetItemsProcessed(state.items_processed() + count);
  }
}
BENCHMARK(BM_BTreeSortedProbeSweep)->Unit(benchmark::kMillisecond);

void BM_LsmUpsert(benchmark::State& state) {
  TempDir dir("micro-lsm");
  BufferCache cache(kPage, 4096, nullptr);
  std::unique_ptr<LsmBTree> lsm;
  PREGELIX_CHECK(
      LsmBTree::Open(&cache, dir.Sub("l"), 1 << 20, &lsm).ok());
  Random rnd(4);
  const std::string value(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsm->Upsert(OrderedKeyI64(rnd.Uniform(1 << 20)), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmUpsert);

void BM_LsmGet(benchmark::State& state) {
  TempDir dir("micro-lsm-get");
  BufferCache cache(kPage, 4096, nullptr);
  std::unique_ptr<LsmBTree> lsm;
  PREGELIX_CHECK(
      LsmBTree::Open(&cache, dir.Sub("l"), 64 * 1024, &lsm).ok());
  for (int64_t vid = 0; vid < 50000; ++vid) {
    PREGELIX_CHECK(lsm->Upsert(OrderedKeyI64(vid), "value").ok());
  }
  Random rnd(5);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsm->Get(OrderedKeyI64(rnd.Uniform(50000)), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGet);

void BM_BufferCachePinHit(benchmark::State& state) {
  TempDir dir("micro-cache");
  BufferCache cache(kPage, 64, nullptr);
  int fid;
  PREGELIX_CHECK(cache.OpenFile(dir.path() + "/f", &fid).ok());
  for (int i = 0; i < 32; ++i) {
    PageHandle page;
    PREGELIX_CHECK(cache.AllocatePage(fid, &page).ok());
    page.MarkDirty();
  }
  Random rnd(6);
  for (auto _ : state) {
    PageHandle page;
    benchmark::DoNotOptimize(
        cache.Pin(fid, static_cast<PageId>(rnd.Uniform(32)), &page));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCachePinHit);

}  // namespace
}  // namespace pregelix

BENCHMARK_MAIN();
