#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "buffer/buffer_cache.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "storage/lsm_btree.h"

namespace pregelix {
namespace {

class LsmBTreeTest : public ::testing::Test {
 protected:
  LsmBTreeTest() : cache_(4096, 128, &metrics_) {}

  std::unique_ptr<LsmBTree> OpenLsm(const std::string& name,
                                    size_t budget = 64 * 1024) {
    std::unique_ptr<LsmBTree> lsm;
    Status s = LsmBTree::Open(&cache_, dir_.Sub(name), budget, &lsm);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return lsm;
  }

  TempDir dir_{"lsm-test"};
  WorkerMetrics metrics_;
  BufferCache cache_;
};

TEST_F(LsmBTreeTest, PutGetDelete) {
  auto lsm = OpenLsm("t");
  ASSERT_TRUE(lsm->Upsert("a", "1").ok());
  ASSERT_TRUE(lsm->Upsert("b", "2").ok());
  std::string value;
  ASSERT_TRUE(lsm->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(lsm->Delete("a").ok());
  EXPECT_TRUE(lsm->Get("a", &value).IsNotFound());
  ASSERT_TRUE(lsm->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST_F(LsmBTreeTest, MemtableFlushCreatesComponent) {
  auto lsm = OpenLsm("t", /*budget=*/2048);
  for (int64_t vid = 0; vid < 200; ++vid) {
    ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), std::string(32, 'x')).ok());
  }
  EXPECT_GT(lsm->num_disk_components(), 0);
  std::string value;
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(13), &value).ok());
  EXPECT_EQ(value, std::string(32, 'x'));
}

TEST_F(LsmBTreeTest, NewestComponentWins) {
  auto lsm = OpenLsm("t", /*budget=*/1024);
  for (int round = 0; round < 5; ++round) {
    for (int64_t vid = 0; vid < 50; ++vid) {
      ASSERT_TRUE(
          lsm->Upsert(OrderedKeyI64(vid), "round-" + std::to_string(round))
              .ok());
    }
    ASSERT_TRUE(lsm->FlushMemtable().ok());
  }
  std::string value;
  for (int64_t vid = 0; vid < 50; ++vid) {
    ASSERT_TRUE(lsm->Get(OrderedKeyI64(vid), &value).ok());
    EXPECT_EQ(value, "round-4");
  }
}

TEST_F(LsmBTreeTest, TombstonesMaskOlderComponents) {
  auto lsm = OpenLsm("t");
  ASSERT_TRUE(lsm->Upsert("k", "v").ok());
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  ASSERT_TRUE(lsm->Delete("k").ok());
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  std::string value;
  EXPECT_TRUE(lsm->Get("k", &value).IsNotFound());
  // Iterator must not surface the tombstoned key either.
  auto it = lsm->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(LsmBTreeTest, MergeCollapsesComponents) {
  auto lsm = OpenLsm("t");
  for (int round = 0; round < 3; ++round) {
    for (int64_t vid = round * 100; vid < (round + 1) * 100; ++vid) {
      ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "v").ok());
    }
    ASSERT_TRUE(lsm->FlushMemtable().ok());
  }
  EXPECT_EQ(lsm->num_disk_components(), 3);
  ASSERT_TRUE(lsm->MergeAll().ok());
  EXPECT_EQ(lsm->num_disk_components(), 1);
  EXPECT_EQ(lsm->num_entries(), 300u);
  std::string value;
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(250), &value).ok());
}

TEST_F(LsmBTreeTest, AutoMergeBoundsComponentCount) {
  auto lsm = OpenLsm("t", /*budget=*/512);
  for (int64_t vid = 0; vid < 3000; ++vid) {
    ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), std::string(16, 'a')).ok());
  }
  EXPECT_LE(lsm->num_disk_components(), LsmBTree::kMaxComponents + 1);
}

TEST_F(LsmBTreeTest, IteratorMergesAllLevels) {
  auto lsm = OpenLsm("t");
  // Component 1: even keys. Component 2: multiples of 3 (overwrites some).
  for (int64_t vid = 0; vid < 100; vid += 2) {
    ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "even").ok());
  }
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  for (int64_t vid = 0; vid < 100; vid += 3) {
    ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "three").ok());
  }
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  // Memtable: one fresh key.
  ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(1), "mem").ok());

  std::map<int64_t, std::string> expected;
  for (int64_t vid = 0; vid < 100; vid += 2) expected[vid] = "even";
  for (int64_t vid = 0; vid < 100; vid += 3) expected[vid] = "three";
  expected[1] = "mem";

  auto it = lsm->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (const auto& [vid, value] : expected) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), vid);
    EXPECT_EQ(it->value().ToString(), value);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(LsmBTreeTest, SeekAcrossComponents) {
  auto lsm = OpenLsm("t");
  for (int64_t vid = 0; vid < 50; vid += 10) {
    ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "v").ok());
  }
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(25), "v").ok());
  auto it = lsm->NewIterator();
  ASSERT_TRUE(it->Seek(OrderedKeyI64(21)).ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 25);
  ASSERT_TRUE(it->Next().ok());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 30);
}

TEST_F(LsmBTreeTest, RandomizedAgainstStdMap) {
  auto lsm = OpenLsm("t", /*budget=*/4096);
  std::map<std::string, std::string> model;
  Random rnd(123);
  for (int op = 0; op < 20000; ++op) {
    const int64_t vid = static_cast<int64_t>(rnd.Uniform(500));
    const std::string key = OrderedKeyI64(vid);
    const int action = static_cast<int>(rnd.Uniform(10));
    if (action < 6) {
      std::string value(rnd.Uniform(30) + 1, 'a' + vid % 26);
      ASSERT_TRUE(lsm->Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(lsm->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value;
      Status s = lsm->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(value, it->second);
      }
    }
  }
  // Final merged scan equals the model.
  auto it = lsm->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), key);
    EXPECT_EQ(it->value().ToString(), value);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(lsm->MergeAll().ok());
  EXPECT_EQ(lsm->num_entries(), model.size());
}

TEST_F(LsmBTreeTest, BulkLoadFastPath) {
  auto lsm = OpenLsm("t");
  auto loader = lsm->NewBulkLoader();
  for (int64_t vid = 0; vid < 1000; ++vid) {
    ASSERT_TRUE(loader->Add(OrderedKeyI64(vid), "bulk").ok());
  }
  ASSERT_TRUE(loader->Finish().ok());
  EXPECT_EQ(lsm->num_disk_components(), 1);
  std::string value;
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(999), &value).ok());
  EXPECT_EQ(value, "bulk");
  // Post-load updates land in the memtable and still win.
  ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(999), "updated").ok());
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(999), &value).ok());
  EXPECT_EQ(value, "updated");
}

TEST_F(LsmBTreeTest, ReopenRecoversDiskComponents) {
  const std::string dir = dir_.Sub("reopen");
  {
    std::unique_ptr<LsmBTree> lsm;
    ASSERT_TRUE(LsmBTree::Open(&cache_, dir, 64 * 1024, &lsm).ok());
    for (int64_t vid = 0; vid < 100; ++vid) {
      ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "gen1").ok());
    }
    ASSERT_TRUE(lsm->FlushMemtable().ok());
    // Second generation overwrites half in a newer component.
    for (int64_t vid = 0; vid < 50; ++vid) {
      ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "gen2").ok());
    }
    ASSERT_TRUE(lsm->Flush().ok());
    EXPECT_EQ(lsm->num_disk_components(), 2);
  }
  // Reopen through a fresh cache: components re-attach, newest still wins.
  WorkerMetrics metrics;
  BufferCache cache(4096, 128, &metrics);
  std::unique_ptr<LsmBTree> lsm;
  ASSERT_TRUE(LsmBTree::Open(&cache, dir, 64 * 1024, &lsm).ok());
  EXPECT_EQ(lsm->num_disk_components(), 2);
  std::string value;
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(10), &value).ok());
  EXPECT_EQ(value, "gen2");
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(80), &value).ok());
  EXPECT_EQ(value, "gen1");
  // New writes continue with fresh component ids.
  ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(10), "gen3").ok());
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  ASSERT_TRUE(lsm->Get(OrderedKeyI64(10), &value).ok());
  EXPECT_EQ(value, "gen3");
}

TEST_F(LsmBTreeTest, DestroyRemovesFiles) {
  auto lsm = OpenLsm("destroy-me");
  ASSERT_TRUE(lsm->Upsert("k", "v").ok());
  ASSERT_TRUE(lsm->FlushMemtable().ok());
  ASSERT_TRUE(lsm->Destroy().ok());
}

// One cursor's seeks, forward and backward, land where the model's
// lower_bound lands, across shadowing components and tombstones, with or
// without a Next in between; an LSM cursor never writes through.
TEST_F(LsmBTreeTest, ReusedCursorSeeksMatchTheModel) {
  auto lsm = OpenLsm("t");
  std::map<std::string, std::string> model;
  Random rnd(321);
  for (int op = 0; op < 6000; ++op) {
    // Four disk components, each shadowing the older ones, and a memtable
    // small enough that most keys are found only in a component.
    if (op > 0 && (op % 1500 == 0 || op == 5900)) {
      ASSERT_TRUE(lsm->FlushMemtable().ok());
    }
    const std::string key = OrderedKeyI64(rnd.Uniform(800));
    if (rnd.Uniform(4) == 0) {
      ASSERT_TRUE(lsm->Delete(key).ok());
      model.erase(key);
    } else {
      const std::string value(rnd.Uniform(20) + 1, 'a' + op % 26);
      ASSERT_TRUE(lsm->Upsert(key, value).ok());
      model[key] = value;
    }
  }
  ASSERT_EQ(lsm->num_disk_components(), 4);
  auto it = lsm->NewIterator();
  int64_t target = -3;
  for (int step = 0; step < 400; ++step) {
    // Mostly ascending, as the left-outer join probes; now and then back.
    target += rnd.Uniform(8) == 0 ? -static_cast<int64_t>(rnd.Uniform(40))
                                  : static_cast<int64_t>(rnd.Uniform(6));
    const std::string key = OrderedKeyI64(target);
    ASSERT_TRUE(it->Seek(key).ok());
    auto want = model.lower_bound(key);
    if (want == model.end()) {
      EXPECT_FALSE(it->Valid()) << "target " << target;
      continue;
    }
    ASSERT_TRUE(it->Valid()) << "target " << target;
    EXPECT_EQ(it->key().ToString(), want->first) << "target " << target;
    EXPECT_EQ(it->value().ToString(), want->second) << "target " << target;
    bool written = true;
    ASSERT_TRUE(it->TryOverwriteValue(it->value(), &written).ok());
    EXPECT_FALSE(written);
    if (rnd.Uniform(2) == 0) continue;
    ASSERT_TRUE(it->Next().ok());
    if (++want == model.end()) {
      EXPECT_FALSE(it->Valid());
    } else {
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(it->key().ToString(), want->first);
    }
  }
}

// A forward seek leaves alone the component cursors already at or past the
// target: a sweep over three interleaved components seeks one component
// cursor per probe, not three.
TEST_F(LsmBTreeTest, ForwardSeekMovesOnlyTheCursorsBehindTheTarget) {
  MetricsRegistry registry;
  BufferCache cache(4096, 64, nullptr);
  cache.SetObservability(nullptr, &registry, /*worker=*/0);
  std::unique_ptr<LsmBTree> lsm;
  ASSERT_TRUE(
      LsmBTree::Open(&cache, dir_.Sub("sweep"), 1024 * 1024, &lsm).ok());
  const int64_t n = 3000;
  for (int64_t residue = 0; residue < 3; ++residue) {
    for (int64_t vid = residue; vid < n; vid += 3) {
      ASSERT_TRUE(lsm->Upsert(OrderedKeyI64(vid), "v").ok());
    }
    ASSERT_TRUE(lsm->FlushMemtable().ok());
  }
  ASSERT_EQ(lsm->num_disk_components(), 3);
  const MetricLabels labels{{"worker", "0"}, {"storage_tier", "btree"}};
  {
    auto it = lsm->NewIterator();
    for (int64_t vid = 0; vid < n; ++vid) {
      ASSERT_TRUE(it->Seek(OrderedKeyI64(vid)).ok());
      ASSERT_TRUE(it->Valid());
      ASSERT_EQ(DecodeOrderedI64(it->key().data()), vid);
    }
  }
  // The first seek positions all three; each later one moves only the
  // cursor on the previous key.
  EXPECT_EQ(registry.CounterValue("pregelix.storage.probes", labels),
            static_cast<uint64_t>(n + 2));
}

}  // namespace
}  // namespace pregelix
