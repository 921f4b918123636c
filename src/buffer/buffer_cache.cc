#include "buffer/buffer_cache.h"

#include <cstring>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace pregelix {

// ---------------------------------------------------------------------------
// PageHandle

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    cache_ = o.cache_;
    slot_ = o.slot_;
    data_ = o.data_;
    page_id_ = o.page_id_;
    dirty_pending_ = o.dirty_pending_;
    o.cache_ = nullptr;
    o.slot_ = -1;
    o.data_ = nullptr;
    o.dirty_pending_ = false;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  PREGELIX_DCHECK(valid());
  // Dirty flag is sticky; applied on release under the cache lock.
  dirty_pending_ = true;
}

void PageHandle::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(slot_, dirty_pending_);
    cache_ = nullptr;
    slot_ = -1;
    data_ = nullptr;
    dirty_pending_ = false;
  }
}

// ---------------------------------------------------------------------------
// BufferCache

BufferCache::BufferCache(size_t page_size, size_t capacity_pages,
                         WorkerMetrics* metrics)
    : page_size_(page_size),
      capacity_pages_(capacity_pages == 0 ? 1 : capacity_pages),
      metrics_(metrics) {
  slots_.resize(capacity_pages_);
}

BufferCache::~BufferCache() {
  size_t num_files;
  {
    MutexLock lock(&mutex_);
    num_files = files_.size();
  }
  // CloseFile is a no-op on already-closed ids, so closing every id in
  // order flushes exactly the still-open files.
  for (size_t i = 0; i < num_files; ++i) {
    Status s = CloseFile(static_cast<int>(i));
    if (!s.ok()) {
      PLOG(Warn) << "buffer cache close on destruction: " << s.ToString();
    }
  }
}

Status BufferCache::OpenFile(const std::string& path, int* file_id) {
  MutexLock lock(&mutex_);
  FileEntry entry;
  PREGELIX_RETURN_NOT_OK(RandomAccessFile::Open(path, metrics_, &entry.file));
  entry.num_pages = static_cast<uint32_t>(entry.file->size() / page_size_);
  entry.open = true;
  entry.path = path;
  // Reuse a closed id if possible.
  for (size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].open) {
      files_[i] = std::move(entry);
      *file_id = static_cast<int>(i);
      return Status::OK();
    }
  }
  files_.push_back(std::move(entry));
  *file_id = static_cast<int>(files_.size() - 1);
  return Status::OK();
}

Status BufferCache::CloseFile(int file_id) {
  MutexLock lock(&mutex_);
  PREGELIX_CHECK(file_id >= 0 && file_id < static_cast<int>(files_.size()));
  FileEntry& entry = files_[file_id];
  if (!entry.open) return Status::OK();
  Status result;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.valid && slot.file_id == file_id) {
      PREGELIX_CHECK(slot.pin_count == 0)
          << "closing file " << entry.path << " with pinned page "
          << slot.page_id;
      if (slot.dirty) {
        Status s = WriteBackLocked(slot);
        if (!s.ok() && result.ok()) result = s;
      }
      page_table_.erase(Key(file_id, slot.page_id));
      if (slot.in_lru) {
        lru_.erase(slot.lru_pos);
        slot.in_lru = false;
      }
      slot.valid = false;
      slot.file_id = -1;
    }
  }
  entry.file.reset();
  entry.open = false;
  return result;
}

Status BufferCache::DeleteFile(int file_id) {
  std::string path;
  {
    MutexLock lock(&mutex_);
    PREGELIX_CHECK(file_id >= 0 && file_id < static_cast<int>(files_.size()));
    FileEntry& entry = files_[file_id];
    if (!entry.open) return Status::OK();
    path = entry.path;
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.valid && slot.file_id == file_id) {
        PREGELIX_CHECK(slot.pin_count == 0);
        page_table_.erase(Key(file_id, slot.page_id));
        if (slot.in_lru) {
          lru_.erase(slot.lru_pos);
          slot.in_lru = false;
        }
        slot.valid = false;
        slot.file_id = -1;
      }
    }
    entry.file.reset();
    entry.open = false;
  }
  DeleteFileIfExists(path);
  return Status::OK();
}

uint32_t BufferCache::NumPages(int file_id) const {
  MutexLock lock(&mutex_);
  PREGELIX_CHECK(file_id >= 0 && file_id < static_cast<int>(files_.size()));
  return files_[file_id].num_pages;
}

void BufferCache::TouchLocked(int slot_idx) {
  Slot& slot = slots_[slot_idx];
  if (slot.in_lru) {
    lru_.erase(slot.lru_pos);
    slot.in_lru = false;
  }
}

Status BufferCache::WriteBackLocked(Slot& slot) {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("buffer.writeback"));
  FileEntry& entry = files_[slot.file_id];
  PREGELIX_CHECK(entry.open);
  PREGELIX_RETURN_NOT_OK(entry.file->Write(
      static_cast<uint64_t>(slot.page_id) * page_size_,
      Slice(slot.data.data(), page_size_)));
  slot.dirty = false;
  writebacks_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BufferCache::GetFreeSlotLocked(int* slot_out) {
  // First: any never-used slot.
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].valid && slots_[i].pin_count == 0) {
      if (slots_[i].data.size() != page_size_) {
        slots_[i].data.assign(page_size_, '\0');
      }
      *slot_out = static_cast<int>(i);
      return Status::OK();
    }
  }
  // Otherwise evict the LRU unpinned page.
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("buffer.eviction"));
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer cache: all pages pinned (capacity " +
        std::to_string(capacity_pages_) + ")");
  }
  int victim = lru_.front();
  lru_.pop_front();
  Slot& slot = slots_[victim];
  slot.in_lru = false;
  PREGELIX_CHECK(slot.valid && slot.pin_count == 0);
  if (slot.dirty) {
    PREGELIX_RETURN_NOT_OK(WriteBackLocked(slot));
  }
  page_table_.erase(Key(slot.file_id, slot.page_id));
  slot.valid = false;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  *slot_out = victim;
  return Status::OK();
}

Status BufferCache::PinExistingOrLoadLocked(int file_id, PageId page,
                                            bool load, PageHandle* out) {
  auto it = page_table_.find(Key(file_id, page));
  int slot_idx;
  if (it != page_table_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    slot_idx = it->second;
    TouchLocked(slot_idx);
    ++slots_[slot_idx].pin_count;
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    PREGELIX_RETURN_NOT_OK(GetFreeSlotLocked(&slot_idx));
    Slot& slot = slots_[slot_idx];
    slot.file_id = file_id;
    slot.page_id = page;
    slot.dirty = false;
    slot.valid = true;
    slot.pin_count = 1;
    if (load) {
      // Elevator model: misses that move FORWARD within a file ride the
      // sweeping head (readahead / short forward seeks); only backward
      // jumps and the first touch of a file pay a full seek. This matches
      // how the access methods behave on a real disk: bulk-load-ordered
      // scans and vid-sorted probe sweeps are sequential, true random
      // probing pays about half the seeks (the backward half).
      FileEntry& entry = files_[file_id];
      const bool sequential =
          entry.touched && page > entry.last_miss_page;
      entry.touched = true;
      entry.last_miss_page = page;
      if (metrics_ != nullptr && !sequential) metrics_->AddSeeks(1);
      Status s = entry.file->Read(static_cast<uint64_t>(page) * page_size_,
                                  page_size_, slot.data.data());
      if (!s.ok()) {
        slot.valid = false;
        slot.pin_count = 0;
        return s;
      }
    } else {
      memset(slot.data.data(), 0, page_size_);
    }
    page_table_[Key(file_id, page)] = slot_idx;
  }
  out->Release();
  out->cache_ = this;
  out->slot_ = slot_idx;
  out->data_ = slots_[slot_idx].data.data();
  out->page_id_ = page;
  return Status::OK();
}

Status BufferCache::Pin(int file_id, PageId page, PageHandle* out) {
  MutexLock lock(&mutex_);
  PREGELIX_CHECK(file_id >= 0 && file_id < static_cast<int>(files_.size()) &&
                 files_[file_id].open);
  if (page >= files_[file_id].num_pages) {
    return Status::InvalidArgument("page " + std::to_string(page) +
                                   " out of range");
  }
  return PinExistingOrLoadLocked(file_id, page, /*load=*/true, out);
}

Status BufferCache::AllocatePage(int file_id, PageHandle* out) {
  MutexLock lock(&mutex_);
  PREGELIX_CHECK(file_id >= 0 && file_id < static_cast<int>(files_.size()) &&
                 files_[file_id].open);
  FileEntry& entry = files_[file_id];
  const PageId page = entry.num_pages;
  ++entry.num_pages;
  PREGELIX_RETURN_NOT_OK(
      PinExistingOrLoadLocked(file_id, page, /*load=*/false, out));
  // New pages are dirty by construction: they exist only in memory.
  slots_[out->slot_].dirty = true;
  return Status::OK();
}

Status BufferCache::FlushFile(int file_id) {
  MutexLock lock(&mutex_);
  PREGELIX_CHECK(file_id >= 0 && file_id < static_cast<int>(files_.size()) &&
                 files_[file_id].open);
  for (Slot& slot : slots_) {
    if (slot.valid && slot.file_id == file_id && slot.dirty) {
      PREGELIX_RETURN_NOT_OK(WriteBackLocked(slot));
    }
  }
  return Status::OK();
}

void BufferCache::Unpin(int slot_idx, bool dirty) {
  MutexLock lock(&mutex_);
  Slot& slot = slots_[slot_idx];
  PREGELIX_CHECK(slot.valid && slot.pin_count > 0);
  if (dirty) slot.dirty = true;
  if (--slot.pin_count == 0) {
    lru_.push_back(slot_idx);
    slot.lru_pos = std::prev(lru_.end());
    slot.in_lru = true;
  }
}

void BufferCache::PublishMetrics(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const MetricLabels labels{{"worker", std::to_string(worker_)}};
  registry->GetGauge("pregelix.buffer.hits", labels)
      ->Set(static_cast<int64_t>(hit_count()));
  registry->GetGauge("pregelix.buffer.misses", labels)
      ->Set(static_cast<int64_t>(miss_count()));
  registry->GetGauge("pregelix.buffer.evictions", labels)
      ->Set(static_cast<int64_t>(eviction_count()));
  registry->GetGauge("pregelix.buffer.writebacks", labels)
      ->Set(static_cast<int64_t>(writeback_count()));
}

size_t BufferCache::pages_in_use() const {
  MutexLock lock(&mutex_);
  size_t n = 0;
  for (const Slot& slot : slots_) {
    if (slot.valid) ++n;
  }
  return n;
}

}  // namespace pregelix
