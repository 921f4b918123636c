#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>

#include "buffer/buffer_cache.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/temp_dir.h"

namespace pregelix {
namespace {

constexpr size_t kPage = 256;

class BufferCacheTest : public ::testing::Test {
 protected:
  /// Writes a file of `pages` pages through a throwaway cache.
  void MakeFile(const std::string& path, int pages) {
    BufferCache cache(kPage, 4, &metrics_);
    int fid;
    ASSERT_TRUE(cache.OpenFile(path, &fid).ok());
    for (int i = 0; i < pages; ++i) {
      PageHandle page;
      ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
      page.MarkDirty();
    }
    ASSERT_TRUE(cache.CloseFile(fid).ok());
  }

  TempDir dir_{"bufcache-test"};
  WorkerMetrics metrics_;
};

TEST_F(BufferCacheTest, AllocateWriteReadBack) {
  BufferCache cache(kPage, 8, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f", &fid).ok());
  PageHandle page;
  ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
  EXPECT_EQ(page.page_id(), 0u);
  memcpy(page.data(), "hello", 5);
  page.MarkDirty();
  page.Release();

  PageHandle again;
  ASSERT_TRUE(cache.Pin(fid, 0, &again).ok());
  EXPECT_EQ(memcmp(again.data(), "hello", 5), 0);
}

TEST_F(BufferCacheTest, EvictionWritesBackDirtyPages) {
  BufferCache cache(kPage, 4, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f", &fid).ok());
  // Create 16 pages through a 4-page cache; each carries its index.
  for (int i = 0; i < 16; ++i) {
    PageHandle page;
    ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
    memcpy(page.data(), &i, sizeof(i));
    page.MarkDirty();
  }
  EXPECT_GT(cache.eviction_count(), 0u);
  // All pages must come back with their contents.
  for (int i = 0; i < 16; ++i) {
    PageHandle page;
    ASSERT_TRUE(cache.Pin(fid, i, &page).ok());
    int stored;
    memcpy(&stored, page.data(), sizeof(stored));
    EXPECT_EQ(stored, i);
  }
}

TEST_F(BufferCacheTest, PinnedPagesAreNotEvictable) {
  BufferCache cache(kPage, 2, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f", &fid).ok());
  PageHandle a, b;
  ASSERT_TRUE(cache.AllocatePage(fid, &a).ok());
  ASSERT_TRUE(cache.AllocatePage(fid, &b).ok());
  PageHandle c;
  // Both slots pinned: a third allocation must fail, not evict.
  EXPECT_EQ(cache.AllocatePage(fid, &c).code(),
            StatusCode::kResourceExhausted);
  a.Release();
  ASSERT_TRUE(cache.AllocatePage(fid, &c).ok());
}

TEST_F(BufferCacheTest, EvictsTheLeastRecentlyUnpinnedPage) {
  MakeFile(dir_.path() + "/lru", 6);
  BufferCache cache(kPage, 3, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/lru", &fid).ok());
  auto touch = [&](PageId page) {
    PageHandle h;
    ASSERT_TRUE(cache.Pin(fid, page, &h).ok());
  };
  // Re-pins the unpinned pages oldest first; each must hit. Touching them
  // in LRU order leaves that order as it was.
  auto expect_lru = [&](std::initializer_list<PageId> oldest_first) {
    for (PageId page : oldest_first) {
      const uint64_t misses = cache.miss_count();
      touch(page);
      EXPECT_EQ(cache.miss_count(), misses) << "page " << page;
    }
  };
  touch(0);
  touch(1);
  touch(2);
  expect_lru({0, 1, 2});
  touch(0);
  expect_lru({1, 2, 0});
  PageHandle held;
  ASSERT_TRUE(cache.Pin(fid, 1, &held).ok());
  expect_lru({2, 0});
  // With page 1 pinned, each miss must evict the head of the LRU list:
  // 2, then 0, then (after 1 is unpinned behind 4) 3.
  touch(3);
  expect_lru({0, 3});
  touch(4);
  expect_lru({3, 4});
  held.Release();
  expect_lru({3, 4, 1});
  touch(5);
  expect_lru({4, 1, 5});
  EXPECT_EQ(cache.eviction_count(), 3u);
  EXPECT_EQ(cache.miss_count(), 6u);
}

TEST_F(BufferCacheTest, FreedSlotsAreReusedBeforeEvicting) {
  for (const bool delete_file : {false, true}) {
    SCOPED_TRACE(delete_file ? "DeleteFile" : "CloseFile");
    BufferCache cache(kPage, 8, &metrics_);
    int a, b, c;
    ASSERT_TRUE(cache.OpenFile(dir_.path() + "/a", &a).ok());
    ASSERT_TRUE(cache.OpenFile(dir_.path() + "/b", &b).ok());
    ASSERT_TRUE(cache.OpenFile(dir_.path() + "/c", &c).ok());
    auto allocate = [&](int fid, int pages) {
      for (int i = 0; i < pages; ++i) {
        PageHandle page;
        ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
      }
    };
    allocate(a, 8);
    allocate(b, 3);  // cache full: evicts three of a's pages
    EXPECT_EQ(cache.eviction_count(), 3u);
    ASSERT_TRUE((delete_file ? cache.DeleteFile(b) : cache.CloseFile(b)).ok());
    EXPECT_EQ(cache.pages_in_use(), 5u);
    // The three freed slots absorb the next three misses.
    allocate(c, 3);
    EXPECT_EQ(cache.eviction_count(), 3u);
    allocate(c, 1);
    EXPECT_EQ(cache.eviction_count(), 4u);
    ASSERT_TRUE(cache.DeleteFile(a).ok());
    ASSERT_TRUE(cache.DeleteFile(c).ok());
  }
}

TEST_F(BufferCacheTest, FailedLoadFreesItsSlot) {
  MakeFile(dir_.path() + "/f", 3);
  BufferCache cache(kPage, 2, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f", &fid).ok());
  {
    PageHandle page;
    ASSERT_TRUE(cache.Pin(fid, 0, &page).ok());
  }
  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::FaultInjector::Global().Arm("io.file.read", spec);
  PageHandle page;
  EXPECT_FALSE(cache.Pin(fid, 1, &page).ok());
  fault::FaultInjector::Global().Reset();
  EXPECT_EQ(cache.pages_in_use(), 1u);
  // The failed load's slot is free again: this miss evicts nothing.
  ASSERT_TRUE(cache.Pin(fid, 2, &page).ok());
  EXPECT_EQ(cache.eviction_count(), 0u);
}

TEST_F(BufferCacheTest, HitAndMissCounters) {
  BufferCache cache(kPage, 4, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f", &fid).ok());
  {
    PageHandle page;
    ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
    page.MarkDirty();
  }
  const uint64_t misses_before = cache.miss_count();
  {
    PageHandle page;
    ASSERT_TRUE(cache.Pin(fid, 0, &page).ok());
  }
  EXPECT_EQ(cache.miss_count(), misses_before);
  EXPECT_GT(cache.hit_count(), 0u);
}

TEST_F(BufferCacheTest, PersistsAcrossReopen) {
  {
    BufferCache cache(kPage, 4, &metrics_);
    int fid;
    ASSERT_TRUE(cache.OpenFile(dir_.path() + "/p", &fid).ok());
    PageHandle page;
    ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
    memcpy(page.data(), "persist", 7);
    page.MarkDirty();
    page.Release();
    ASSERT_TRUE(cache.FlushFile(fid).ok());
  }
  BufferCache cache(kPage, 4, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/p", &fid).ok());
  EXPECT_EQ(cache.NumPages(fid), 1u);
  PageHandle page;
  ASSERT_TRUE(cache.Pin(fid, 0, &page).ok());
  EXPECT_EQ(memcmp(page.data(), "persist", 7), 0);
}

TEST_F(BufferCacheTest, SeeksAreMeteredOnMiss) {
  {
    BufferCache cache(kPage, 2, &metrics_);
    int fid;
    ASSERT_TRUE(cache.OpenFile(dir_.path() + "/s", &fid).ok());
    for (int i = 0; i < 8; ++i) {
      PageHandle page;
      ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
      page.MarkDirty();
    }
    ASSERT_TRUE(cache.FlushFile(fid).ok());
  }
  metrics_.Reset();
  BufferCache cache(kPage, 2, &metrics_);
  int fid;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/s", &fid).ok());
  // Sequential misses pay one seek (readahead); the bytes are all charged.
  for (int i = 0; i < 8; ++i) {
    PageHandle page;
    ASSERT_TRUE(cache.Pin(fid, i, &page).ok());
  }
  EXPECT_EQ(metrics_.Snapshot().disk_seeks, 1u);
  EXPECT_EQ(metrics_.Snapshot().disk_read_bytes, 8 * kPage);
  // Random misses each pay a seek.
  for (int i = 6; i >= 0; i -= 2) {
    PageHandle page;
    ASSERT_TRUE(cache.Pin(fid, i, &page).ok());
  }
  EXPECT_GE(metrics_.Snapshot().disk_seeks, 3u);
}

TEST_F(BufferCacheTest, DeleteFileRemovesBacking) {
  BufferCache cache(kPage, 4, &metrics_);
  int fid;
  const std::string path = dir_.path() + "/d";
  ASSERT_TRUE(cache.OpenFile(path, &fid).ok());
  {
    PageHandle page;
    ASSERT_TRUE(cache.AllocatePage(fid, &page).ok());
    page.MarkDirty();
  }
  ASSERT_TRUE(cache.DeleteFile(fid).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST_F(BufferCacheTest, TwoFilesDoNotAlias) {
  BufferCache cache(kPage, 8, &metrics_);
  int f1, f2;
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f1", &f1).ok());
  ASSERT_TRUE(cache.OpenFile(dir_.path() + "/f2", &f2).ok());
  {
    PageHandle a, b;
    ASSERT_TRUE(cache.AllocatePage(f1, &a).ok());
    ASSERT_TRUE(cache.AllocatePage(f2, &b).ok());
    memcpy(a.data(), "AAAA", 4);
    memcpy(b.data(), "BBBB", 4);
    a.MarkDirty();
    b.MarkDirty();
  }
  PageHandle a, b;
  ASSERT_TRUE(cache.Pin(f1, 0, &a).ok());
  ASSERT_TRUE(cache.Pin(f2, 0, &b).ok());
  EXPECT_EQ(memcmp(a.data(), "AAAA", 4), 0);
  EXPECT_EQ(memcmp(b.data(), "BBBB", 4), 0);
}

}  // namespace
}  // namespace pregelix
