#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_cache.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "storage/btree.h"

namespace pregelix {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : cache_(4096, 64, &metrics_) {}

  std::unique_ptr<BTree> OpenTree(const std::string& name) {
    std::unique_ptr<BTree> tree;
    Status s = BTree::Open(&cache_, dir_.path() + "/" + name, &tree);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return tree;
  }

  TempDir dir_{"btree-test"};
  WorkerMetrics metrics_;
  BufferCache cache_;
};

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  auto tree = OpenTree("t");
  std::string value;
  EXPECT_TRUE(tree->Get("missing", &value).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 0u);
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, InsertAndGet) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("b", "2").ok());
  ASSERT_TRUE(tree->Upsert("a", "1").ok());
  ASSERT_TRUE(tree->Upsert("c", "3").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(tree->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(tree->Get("c", &value).ok());
  EXPECT_EQ(value, "3");
  EXPECT_TRUE(tree->Get("d", &value).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 3u);
}

TEST_F(BTreeTest, UpsertReplaces) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("k", "old").ok());
  ASSERT_TRUE(tree->Upsert("k", "new").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, "new");
  EXPECT_EQ(tree->num_entries(), 1u);
}

TEST_F(BTreeTest, UpsertSameSizeInPlace) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("k", "aaaa").ok());
  ASSERT_TRUE(tree->Upsert("k", "bbbb").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, "bbbb");
  EXPECT_EQ(tree->num_entries(), 1u);
}

TEST_F(BTreeTest, DeleteIsIdempotent) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("k", "v").ok());
  ASSERT_TRUE(tree->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(tree->Get("k", &value).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 0u);
  ASSERT_TRUE(tree->Delete("k").ok());
  ASSERT_TRUE(tree->Delete("never-there").ok());
}

TEST_F(BTreeTest, ManyInsertsSplitAndStaySorted) {
  auto tree = OpenTree("t");
  // Enough 8-byte-key entries to force multiple levels with 4 KB pages.
  const int n = 20000;
  Random rnd(11);
  std::vector<int64_t> vids(n);
  for (int i = 0; i < n; ++i) vids[i] = i;
  // Shuffle insertion order.
  for (int i = n - 1; i > 0; --i) {
    std::swap(vids[i], vids[rnd.Uniform(i + 1)]);
  }
  for (int64_t vid : vids) {
    std::string value = "value-" + std::to_string(vid);
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), value).ok());
  }
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));
  EXPECT_GT(tree->height(), 1);

  // Full scan must return all keys in order.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(it->Valid()) << "stopped early at " << i;
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), i);
    EXPECT_EQ(it->value().ToString(), "value-" + std::to_string(i));
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, RandomizedAgainstStdMap) {
  auto tree = OpenTree("t");
  std::map<std::string, std::string> model;
  Random rnd(99);
  for (int op = 0; op < 30000; ++op) {
    const int64_t vid = static_cast<int64_t>(rnd.Uniform(2000));
    const std::string key = OrderedKeyI64(vid);
    const int action = static_cast<int>(rnd.Uniform(10));
    if (action < 6) {
      std::string value(rnd.Uniform(40) + 1, 'a' + vid % 26);
      ASSERT_TRUE(tree->Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(tree->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value;
      Status s = tree->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, it->second);
      }
    }
  }
  EXPECT_EQ(tree->num_entries(), model.size());
  Status cs = tree->CheckConsistency();
  EXPECT_TRUE(cs.ok()) << cs.ToString();
  // Final scan equals model scan.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), key);
    EXPECT_EQ(it->value().ToString(), value);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, FingerStaysCorrectAcrossResizesSplitsAndDeletes) {
  // Every write descends to (or fingers) its key's leaf; a Get of a nearby
  // key right after it probes that leaf's finger after whatever the write
  // did: same-length, growing, shrinking or overflow-sized upserts, inserts
  // that split the leaf, deletes. Only even vids are stored, so odd probes
  // are absent keys inside the leaf's range; some probes land outside it.
  auto tree = OpenTree("t");
  std::map<std::string, std::string> model;
  Random rnd(5);
  int64_t vid = 0;
  for (int op = 0; op < 30000; ++op) {
    vid = rnd.Uniform(8) == 0
              ? static_cast<int64_t>(rnd.Uniform(4000))
              : std::clamp<int64_t>(
                    vid + static_cast<int64_t>(rnd.Uniform(9)) - 4, 0, 3999);
    const std::string key = OrderedKeyI64(vid & ~int64_t{1});
    if (rnd.Uniform(6) == 0) {
      ASSERT_TRUE(tree->Delete(key).ok());
      model.erase(key);
    } else {
      auto found = model.find(key);
      const size_t old_size = found == model.end() ? 0 : found->second.size();
      size_t size;
      switch (rnd.Uniform(8)) {
        case 0:
          size = 1 + rnd.Uniform(20);  // new size, usually shrinking
          break;
        case 1:
          size = old_size + 1 + rnd.Uniform(40);  // growing
          break;
        case 2:
          size = 1100 + rnd.Uniform(5000);  // overflow chain (> page / 4)
          break;
        default:
          size = old_size == 0 ? 16 : old_size;  // same length
          break;
      }
      const std::string value(size, static_cast<char>('a' + op % 26));
      ASSERT_TRUE(tree->Upsert(key, value).ok());
      model[key] = value;
    }
    const int64_t probe_vid = vid + static_cast<int64_t>(rnd.Uniform(33)) - 16;
    const std::string probe = OrderedKeyI64(probe_vid);
    std::string value;
    Status s = tree->Get(probe, &value);
    auto it = model.find(probe);
    if (it == model.end()) {
      ASSERT_TRUE(s.IsNotFound()) << "op " << op << " vid " << probe_vid;
    } else {
      ASSERT_TRUE(s.ok()) << "op " << op << " vid " << probe_vid << ": "
                          << s.ToString();
      ASSERT_EQ(value, it->second) << "op " << op << " vid " << probe_vid;
    }
  }
  EXPECT_EQ(tree->num_entries(), model.size());
  EXPECT_GT(tree->height(), 1);
  Status cs = tree->CheckConsistency();
  EXPECT_TRUE(cs.ok()) << cs.ToString();
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), key);
    EXPECT_EQ(it->value().ToString(), value);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, SeekPositionsAtLowerBound) {
  auto tree = OpenTree("t");
  for (int64_t vid = 0; vid < 100; vid += 10) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), "v").ok());
  }
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->Seek(OrderedKeyI64(35)).ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 40);
  ASSERT_TRUE(it->Seek(OrderedKeyI64(40)).ok());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 40);
  ASSERT_TRUE(it->Seek(OrderedKeyI64(91)).ok());
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(it->Seek(OrderedKeyI64(-5)).ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 0);
}

TEST_F(BTreeTest, OverflowValuesRoundTrip) {
  auto tree = OpenTree("t");
  // Values far larger than a page exercise the overflow chain.
  std::string big1(3 * 4096 + 123, 'x');
  std::string big2(10 * 4096, 'y');
  ASSERT_TRUE(tree->Upsert("big1", big1).ok());
  ASSERT_TRUE(tree->Upsert("big2", big2).ok());
  ASSERT_TRUE(tree->Upsert("small", "s").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("big1", &value).ok());
  EXPECT_EQ(value, big1);
  ASSERT_TRUE(tree->Get("big2", &value).ok());
  EXPECT_EQ(value, big2);
  // Iterator also reads overflowed values.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().size(), big1.size());
}

TEST_F(BTreeTest, OverflowPagesAreRecycled) {
  auto tree = OpenTree("t");
  std::string big(4 * 4096, 'x');
  ASSERT_TRUE(tree->Upsert("k", big).ok());
  const uint32_t pages_after_first = tree->num_pages();
  // Repeated same-size overwrites must reuse freed overflow pages instead of
  // growing the file.
  for (int i = 0; i < 10; ++i) {
    big[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(tree->Upsert("k", big).ok());
  }
  EXPECT_LE(tree->num_pages(), pages_after_first + 5);
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, big);
}

TEST_F(BTreeTest, BulkLoadThenRead) {
  auto tree = OpenTree("t");
  auto loader = tree->NewBulkLoader();
  const int n = 50000;
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(loader->Add(OrderedKeyI64(vid), "v" + std::to_string(vid)).ok());
  }
  ASSERT_TRUE(loader->Finish().ok());
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));

  std::string value;
  ASSERT_TRUE(tree->Get(OrderedKeyI64(0), &value).ok());
  EXPECT_EQ(value, "v0");
  ASSERT_TRUE(tree->Get(OrderedKeyI64(n / 2), &value).ok());
  EXPECT_EQ(value, "v" + std::to_string(n / 2));
  ASSERT_TRUE(tree->Get(OrderedKeyI64(n - 1), &value).ok());
  EXPECT_EQ(value, "v" + std::to_string(n - 1));
  EXPECT_TRUE(tree->Get(OrderedKeyI64(n), &value).IsNotFound());

  // Updates after a bulk load must work (splits into loaded pages).
  for (int64_t vid = 0; vid < 1000; ++vid) {
    ASSERT_TRUE(
        tree->Upsert(OrderedKeyI64(vid), std::string(60, 'z')).ok());
  }
  ASSERT_TRUE(tree->Get(OrderedKeyI64(500), &value).ok());
  EXPECT_EQ(value, std::string(60, 'z'));
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));
}

TEST_F(BTreeTest, BulkLoadEmptyInput) {
  auto tree = OpenTree("t");
  auto loader = tree->NewBulkLoader();
  ASSERT_TRUE(loader->Finish().ok());
  EXPECT_EQ(tree->num_entries(), 0u);
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  const std::string path = dir_.path() + "/persist";
  {
    std::unique_ptr<BTree> tree;
    ASSERT_TRUE(BTree::Open(&cache_, path, &tree).ok());
    for (int64_t vid = 0; vid < 5000; ++vid) {
      ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), "p" + std::to_string(vid))
                      .ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&cache_, path, &tree).ok());
  EXPECT_EQ(tree->num_entries(), 5000u);
  std::string value;
  ASSERT_TRUE(tree->Get(OrderedKeyI64(4321), &value).ok());
  EXPECT_EQ(value, "p4321");
}

TEST_F(BTreeTest, WorksWithTinyBufferCache) {
  // 24 pages of 4 KB = 96 KB of memory for a multi-MB tree: everything
  // must still be correct, just slower (this is the out-of-core path).
  WorkerMetrics metrics;
  BufferCache small_cache(4096, 24, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&small_cache, dir_.path() + "/small", &tree).ok());
  const int n = 20000;
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(
        tree->Upsert(OrderedKeyI64(vid), std::string(100, 'a' + vid % 26))
            .ok());
  }
  EXPECT_GT(small_cache.eviction_count(), 0u);
  std::string value;
  for (int64_t vid = 0; vid < n; vid += 997) {
    ASSERT_TRUE(tree->Get(OrderedKeyI64(vid), &value).ok());
    EXPECT_EQ(value, std::string(100, 'a' + vid % 26));
  }
  EXPECT_GT(metrics.Snapshot().disk_read_bytes, 0u);
}

TEST_F(BTreeTest, ScanWithInPlaceUpdatesUnderTinyBufferCache) {
  // The full-outer join's pattern: a live cursor overwrites its current
  // record with a same-length value while a 24-page cache forces evictions
  // (and write-backs) of the leaves around the one the cursor holds.
  WorkerMetrics metrics;
  BufferCache small_cache(4096, 24, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&small_cache, dir_.path() + "/scan", &tree).ok());
  const int64_t n = 20000;
  auto loader = tree->NewBulkLoader();
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(loader->Add(OrderedKeyI64(vid), std::string(100, 'a')).ok());
  }
  ASSERT_TRUE(loader->Finish().ok());
  const uint64_t pins_before =
      small_cache.hit_count() + small_cache.miss_count();
  const uint64_t evictions_before = small_cache.eviction_count();
  {
    auto it = tree->NewIterator();
    ASSERT_TRUE(it->SeekToFirst().ok());
    int64_t expected = 0;
    while (it->Valid()) {
      ASSERT_EQ(DecodeOrderedI64(it->key().data()), expected);
      EXPECT_EQ(it->value().ToString(), std::string(100, 'a'));
      const std::string updated(100, static_cast<char>('A' + expected % 26));
      bool written = false;
      ASSERT_TRUE(it->TryOverwriteValue(updated, &written).ok());
      ASSERT_TRUE(written);
      // value() is a view into the leaf: it reads the new record.
      EXPECT_EQ(it->value().ToString(), updated);
      ASSERT_TRUE(it->Next().ok());
      ++expected;
    }
    EXPECT_EQ(expected, n);
  }
  EXPECT_GT(small_cache.eviction_count(), evictions_before);
  // One pin per leaf: the cursor holds its leaf and writes through it.
  EXPECT_LT(small_cache.hit_count() + small_cache.miss_count() - pins_before,
            static_cast<uint64_t>(n / 20));
  std::string value;
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(tree->Get(OrderedKeyI64(vid), &value).ok());
    ASSERT_EQ(value, std::string(100, static_cast<char>('A' + vid % 26)))
        << "vid " << vid;
  }
  Status cs = tree->CheckConsistency();
  EXPECT_TRUE(cs.ok()) << cs.ToString();
}

TEST_F(BTreeTest, WriteThroughSurvivesEvictionWithATwoPageCache) {
  // Two pages: the cursor's leaf and one more, so every other leaf the scan
  // leaves behind is evicted and written back before it is read again.
  WorkerMetrics metrics;
  BufferCache tiny(4096, 2, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&tiny, dir_.path() + "/tiny", &tree).ok());
  const int64_t n = 3000;
  {
    auto loader = tree->NewBulkLoader();
    for (int64_t vid = 0; vid < n; ++vid) {
      ASSERT_TRUE(loader->Add(OrderedKeyI64(vid), std::string(60, 'a')).ok());
    }
    ASSERT_TRUE(loader->Finish().ok());
  }
  {
    auto it = tree->NewIterator();
    ASSERT_TRUE(it->SeekToFirst().ok());
    for (int64_t vid = 0; it->Valid(); ++vid) {
      bool written = false;
      ASSERT_TRUE(it->TryOverwriteValue(
                        std::string(60, static_cast<char>('a' + vid % 26)),
                        &written)
                      .ok());
      ASSERT_TRUE(written);
      ASSERT_TRUE(it->Next().ok());
    }
  }
  EXPECT_GT(tiny.eviction_count(), 0u);
  EXPECT_GT(metrics.Snapshot().disk_write_bytes, 0u);
  std::string value;
  for (int64_t vid = n - 1; vid >= 0; --vid) {
    ASSERT_TRUE(tree->Get(OrderedKeyI64(vid), &value).ok());
    ASSERT_EQ(value, std::string(60, static_cast<char>('a' + vid % 26)))
        << "vid " << vid;
  }
}

TEST_F(BTreeTest, OverwriteOfAnotherLengthChangesNothing) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("a", "old-value").ok());
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->Seek("a").ok());
  ASSERT_TRUE(it->Valid());
  for (const std::string& other : {std::string("short"),
                                   std::string("a-longer-value")}) {
    bool written = true;
    ASSERT_TRUE(it->TryOverwriteValue(other, &written).ok());
    EXPECT_FALSE(written);
    EXPECT_EQ(it->value().ToString(), "old-value");
  }
  it.reset();
  std::string value;
  ASSERT_TRUE(tree->Get("a", &value).ok());
  EXPECT_EQ(value, "old-value");
}

TEST_F(BTreeTest, OverwritesAnOverflowValueAlongItsChain) {
  // Three cache pages against a four-page chain: re-reading the value
  // evicts the pages the overwrite dirtied.
  WorkerMetrics metrics;
  BufferCache tiny(4096, 3, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&tiny, dir_.path() + "/chain", &tree).ok());
  const std::string big(3 * 4096 + 123, 'x');
  ASSERT_TRUE(tree->Upsert("big", big).ok());
  ASSERT_TRUE(tree->Upsert("small", "s").ok());
  const uint32_t pages = tree->num_pages();
  std::string updated(big.size(), 'y');
  for (size_t i = 0; i < updated.size(); i += 4096) updated[i] = 'z';
  {
    auto it = tree->NewIterator();
    ASSERT_TRUE(it->Seek("big").ok());
    ASSERT_TRUE(it->Valid());
    bool written = false;
    ASSERT_TRUE(it->TryOverwriteValue(updated, &written).ok());
    EXPECT_TRUE(written);
    EXPECT_EQ(it->value().ToString(), updated);
  }
  // In place: no new chain was allocated.
  EXPECT_EQ(tree->num_pages(), pages);
  std::string value;
  ASSERT_TRUE(tree->Get("big", &value).ok());
  EXPECT_EQ(value, updated);
  ASSERT_TRUE(tree->Get("small", &value).ok());
  EXPECT_EQ(value, "s");
}

TEST_F(BTreeTest, ForwardSeekLandsWhereADescentLands) {
  // Even vids 0..3998 over many leaves; each seek of the reused cursor must
  // land where a fresh cursor's root descent lands.
  auto tree = OpenTree("t");
  std::vector<int64_t> present;
  for (int64_t vid = 0; vid < 4000; vid += 2) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), std::string(80, 'v')).ok());
    present.push_back(vid);
  }
  auto lands = [&](int64_t target) -> int64_t {
    const auto pos =
        std::lower_bound(present.begin(), present.end(), target);
    return pos == present.end() ? -1 : *pos;
  };
  auto expect_seek = [&](IndexIterator* it, int64_t target) {
    ASSERT_TRUE(it->Seek(OrderedKeyI64(target)).ok());
    const int64_t want = lands(target);
    if (want < 0) {
      EXPECT_FALSE(it->Valid()) << "target " << target;
      return;
    }
    ASSERT_TRUE(it->Valid()) << "target " << target;
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), want)
        << "target " << target;
  };
  auto it = tree->NewIterator();
  expect_seek(it.get(), 1001);  // a descent
  expect_seek(it.get(), 1003);  // forward inside the leaf
  expect_seek(it.get(), 1004);
  expect_seek(it.get(), 101);   // before the cursor
  expect_seek(it.get(), 2501);  // past the leaf
  expect_seek(it.get(), 2503);
  // Deleting keys below the cursor in its leaf shifts its slots left, so a
  // search that trusted the old slot would overshoot.
  ASSERT_TRUE(it->Seek(OrderedKeyI64(2520)).ok());
  for (int64_t vid : {2510, 2512, 2514, 2516}) {
    ASSERT_TRUE(tree->Delete(OrderedKeyI64(vid)).ok());
    present.erase(std::find(present.begin(), present.end(), vid));
  }
  expect_seek(it.get(), 2520);
  // Inserts that split the cursor's leaf move its cells to a new page.
  ASSERT_TRUE(it->Seek(OrderedKeyI64(3000)).ok());
  for (int64_t vid = 2901; vid < 3000; vid += 2) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), std::string(80, 'w')).ok());
    present.insert(std::lower_bound(present.begin(), present.end(), vid),
                   vid);
  }
  expect_seek(it.get(), 2950);
  expect_seek(it.get(), 2999);
  expect_seek(it.get(), 3001);
  expect_seek(it.get(), 3998);
  expect_seek(it.get(), 3999);  // runs off the end
  expect_seek(it.get(), 5000);  // past the end again
  expect_seek(it.get(), 10);    // back before the end
  expect_seek(it.get(), 4500);
  // A key appended past the old end is found once the cursor ran off.
  ASSERT_TRUE(tree->Upsert(OrderedKeyI64(4600), std::string(80, 'e')).ok());
  present.push_back(4600);
  expect_seek(it.get(), 4501);
  Status cs = tree->CheckConsistency();
  EXPECT_TRUE(cs.ok()) << cs.ToString();
}

TEST_F(BTreeTest, ReusedCursorMatchesTheModelUnderInterleavedWrites) {
  // One cursor, sought mostly forward, now and then back and past the end,
  // while the tree changes under it, half the time near the cursor: new
  // keys (splits, appends past the end), deletes, and values of another
  // length or overflow size (the cell is replaced). After such a write only
  // Seek may touch the cursor; each seek lands where the model's
  // lower_bound does, and a same-length overwrite through it sticks. A
  // 12-page cache evicts the pages the overwrites dirtied.
  WorkerMetrics metrics;
  BufferCache small_cache(4096, 12, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&small_cache, dir_.path() + "/model", &tree).ok());
  std::map<std::string, std::string> model;
  Random rnd(77);
  auto make_value = [&](int op) {
    const uint64_t len = rnd.Uniform(20) == 0 ? 1500 + rnd.Uniform(3000)
                                              : 1 + rnd.Uniform(120);
    return std::string(len, static_cast<char>('a' + op % 26));
  };
  for (int64_t vid = 0; vid < 2000; vid += 2) {
    const std::string key = OrderedKeyI64(vid);
    model[key] = make_value(static_cast<int>(vid));
    ASSERT_TRUE(tree->Upsert(key, model[key]).ok());
  }
  auto it = tree->NewIterator();
  int64_t target = 0;
  for (int op = 0; op < 20000; ++op) {
    if (rnd.Uniform(5) == 0) {
      const std::string key =
          OrderedKeyI64(rnd.Uniform(2) == 0
                            ? target - 8 + static_cast<int64_t>(rnd.Uniform(24))
                            : static_cast<int64_t>(rnd.Uniform(2600)));
      if (rnd.Uniform(3) == 0) {
        ASSERT_TRUE(tree->Delete(key).ok());
        model.erase(key);
      } else {
        model[key] = make_value(op);
        ASSERT_TRUE(tree->Upsert(key, model[key]).ok());
      }
      continue;
    }
    target += rnd.Uniform(10) == 0 ? -static_cast<int64_t>(rnd.Uniform(40))
                                   : static_cast<int64_t>(rnd.Uniform(8));
    if (target > 2700) target = -5;
    const std::string key = OrderedKeyI64(target);
    ASSERT_TRUE(it->Seek(key).ok());
    const auto want = model.lower_bound(key);
    if (want == model.end()) {
      ASSERT_FALSE(it->Valid()) << "op " << op << " target " << target;
      continue;
    }
    ASSERT_TRUE(it->Valid()) << "op " << op << " target " << target;
    ASSERT_EQ(it->key().ToString(), want->first)
        << "op " << op << " target " << target;
    ASSERT_EQ(it->value().ToString(), want->second) << "op " << op;
    if (rnd.Uniform(2) == 0) {
      const std::string updated(want->second.size(),
                                static_cast<char>('A' + op % 26));
      bool written = false;
      ASSERT_TRUE(it->TryOverwriteValue(updated, &written).ok());
      ASSERT_TRUE(written);
      want->second = updated;
      ASSERT_EQ(it->value().ToString(), updated);
    }
  }
  it.reset();
  auto scan = tree->NewIterator();
  ASSERT_TRUE(scan->SeekToFirst().ok());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(scan->Valid());
    ASSERT_EQ(scan->key().ToString(), key);
    ASSERT_EQ(scan->value().ToString(), value);
    ASSERT_TRUE(scan->Next().ok());
  }
  EXPECT_FALSE(scan->Valid());
  scan.reset();
  Status cs = tree->CheckConsistency();
  EXPECT_TRUE(cs.ok()) << cs.ToString();
}

TEST_F(BTreeTest, SecondDestroyLeavesTheNextFileAlone) {
  // The cache hands a deleted file's id to the next file it opens; a second
  // Destroy of the first tree must not drop or delete that file.
  auto first = OpenTree("first");
  ASSERT_TRUE(first->Upsert("k", "v").ok());
  ASSERT_TRUE(first->Destroy().ok());
  auto second = OpenTree("second");
  for (int64_t vid = 0; vid < 500; ++vid) {
    ASSERT_TRUE(
        second->Upsert(OrderedKeyI64(vid), "v" + std::to_string(vid)).ok());
  }
  ASSERT_TRUE(first->Destroy().ok());
  first.reset();
  std::string value;
  for (int64_t vid = 0; vid < 500; ++vid) {
    ASSERT_TRUE(second->Get(OrderedKeyI64(vid), &value).ok()) << vid;
    ASSERT_EQ(value, "v" + std::to_string(vid));
  }
  ASSERT_TRUE(second->Flush().ok());
  EXPECT_TRUE(std::filesystem::exists(dir_.path() + "/second"));
  EXPECT_FALSE(std::filesystem::exists(dir_.path() + "/first"));
}

TEST_F(BTreeTest, CursorCountsSeeksAsProbesAndOverwritesAsInserts) {
  MetricsRegistry registry;
  BufferCache cache(4096, 64, nullptr);
  cache.SetObservability(nullptr, &registry, /*worker=*/0);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&cache, dir_.path() + "/counted", &tree).ok());
  for (int64_t vid = 0; vid < 100; ++vid) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), "value").ok());
  }
  const MetricLabels labels{{"worker", "0"}, {"storage_tier", "btree"}};
  const uint64_t inserts = registry.CounterValue("pregelix.storage.inserts",
                                                 labels);
  const uint64_t probes = registry.CounterValue("pregelix.storage.probes",
                                                labels);
  {
    auto it = tree->NewIterator();
    for (int64_t vid = 0; vid < 100; vid += 10) {
      ASSERT_TRUE(it->Seek(OrderedKeyI64(vid)).ok());
      bool written = false;
      ASSERT_TRUE(it->TryOverwriteValue("VALUE", &written).ok());
      ASSERT_TRUE(written);
    }
    // Published once, when the cursor goes.
    EXPECT_EQ(registry.CounterValue("pregelix.storage.probes", labels),
              probes);
  }
  EXPECT_EQ(registry.CounterValue("pregelix.storage.probes", labels),
            probes + 10);
  EXPECT_EQ(registry.CounterValue("pregelix.storage.inserts", labels),
            inserts + 10);
}

struct BTreeSweepParam {
  int num_keys;
  int value_size;
};

class BTreeSweepTest : public ::testing::TestWithParam<BTreeSweepParam> {};

/// Property sweep: for a grid of (cardinality, record size), a full scan
/// after random-order inserts yields exactly the sorted key sequence.
TEST_P(BTreeSweepTest, ScanEqualsSortedInsertSet) {
  const auto [num_keys, value_size] = GetParam();
  TempDir dir("btree-sweep");
  WorkerMetrics metrics;
  BufferCache cache(4096, 64, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&cache, dir.path() + "/t", &tree).ok());
  Random rnd(static_cast<uint64_t>(num_keys * 31 + value_size));
  std::vector<int64_t> vids(num_keys);
  for (int i = 0; i < num_keys; ++i) vids[i] = i * 3;  // gaps
  for (int i = num_keys - 1; i > 0; --i) {
    std::swap(vids[i], vids[rnd.Uniform(i + 1)]);
  }
  for (int64_t vid : vids) {
    ASSERT_TRUE(
        tree->Upsert(OrderedKeyI64(vid), std::string(value_size, 'v')).ok());
  }
  Status cs = tree->CheckConsistency();
  ASSERT_TRUE(cs.ok()) << cs.ToString();
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (int i = 0; i < num_keys; ++i) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), i * 3);
    EXPECT_EQ(it->value().size(), static_cast<size_t>(value_size));
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BTreeSweepTest,
    ::testing::Values(BTreeSweepParam{10, 8}, BTreeSweepParam{100, 100},
                      BTreeSweepParam{1000, 500}, BTreeSweepParam{5000, 40},
                      BTreeSweepParam{300, 2000}));

}  // namespace
}  // namespace pregelix
