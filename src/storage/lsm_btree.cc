#include "storage/lsm_btree.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/temp_dir.h"
#include "io/file.h"

namespace pregelix {

namespace {
constexpr char kPutMarker = 0;
constexpr char kTombstoneMarker = 1;
constexpr char kCurrentFile[] = "CURRENT";
}  // namespace

LsmBTree::LsmBTree(BufferCache* cache, std::string dir, size_t budget)
    : cache_(cache), dir_(std::move(dir)), memtable_budget_(budget) {}

LsmBTree::~LsmBTree() {
  if (!destroyed_) {
    Status s = Flush();
    if (!s.ok()) {
      PLOG(Warn) << "lsm flush on close failed: " << s.ToString();
    }
  }
}

Status LsmBTree::Open(BufferCache* cache, const std::string& dir,
                      size_t memtable_budget_bytes,
                      std::unique_ptr<LsmBTree>* out) {
  if (!EnsureDir(dir)) {
    return Status::IoError("cannot create lsm dir " + dir);
  }
  std::unique_ptr<LsmBTree> lsm(new LsmBTree(cache, dir, memtable_budget_bytes));
  if (cache->registry() != nullptr) {
    const MetricLabels labels{{"worker", std::to_string(cache->worker_id())},
                              {"storage_tier", "lsm"}};
    lsm->probes_ = cache->registry()->GetCounter("pregelix.storage.probes",
                                                 labels);
    lsm->inserts_ = cache->registry()->GetCounter("pregelix.storage.inserts",
                                                  labels);
  }
  // Recover disk components. The CURRENT manifest is the commit record: it
  // lists the ids of live components newest-first, and is rewritten
  // atomically (temp + rename) at the end of every flush/merge/bulk load.
  // Component files on disk but absent from CURRENT are debris from a crash
  // mid-flush or mid-merge and are deleted here; attaching them blindly
  // could surface torn pages or resurrect deleted keys.
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("c", 0) == 0 && name.size() > 7 &&
        name.substr(name.size() - 6) == ".btree") {
      const uint64_t id = std::strtoull(name.c_str() + 1, nullptr, 10);
      found.emplace_back(id, it->path().string());
      lsm->next_component_id_ = std::max(lsm->next_component_id_, id + 1);
    }
  }
  const std::string current_path = dir + "/" + kCurrentFile;
  std::vector<uint64_t> live;
  if (FileExists(current_path)) {
    std::string manifest;
    PREGELIX_RETURN_NOT_OK(ReadFileToString(current_path, &manifest));
    size_t pos = 0;
    while (pos < manifest.size()) {
      size_t eol = manifest.find('\n', pos);
      if (eol == std::string::npos) eol = manifest.size();
      if (eol > pos) {
        live.push_back(std::strtoull(manifest.c_str() + pos, nullptr, 10));
      }
      pos = eol + 1;
    }
  } else {
    // Legacy dir (or pre-crash-consistency data): every component is live,
    // newest first.
    std::sort(found.rbegin(), found.rend());
    for (const auto& [id, path] : found) live.push_back(id);
  }
  for (uint64_t id : live) {
    auto it = std::find_if(found.begin(), found.end(),
                           [id](const auto& f) { return f.first == id; });
    if (it == found.end()) {
      return Status::Corruption("lsm CURRENT references missing component c" +
                                std::to_string(id) + ".btree in " + dir);
    }
    std::unique_ptr<BTree> component;
    PREGELIX_RETURN_NOT_OK(BTree::Open(cache, it->second, &component));
    lsm->components_.push_back(std::move(component));
    lsm->component_ids_.push_back(id);
  }
  for (const auto& [id, path] : found) {
    if (std::find(live.begin(), live.end(), id) == live.end()) {
      PLOG(Info) << "lsm: deleting orphan component " << path;
      DeleteFileIfExists(path);
    }
  }
  *out = std::move(lsm);
  return Status::OK();
}

std::string LsmBTree::ComponentPath(uint64_t id) const {
  return dir_ + "/c" + std::to_string(id) + ".btree";
}

Status LsmBTree::WriteCurrent(const char* fault_point) {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail(fault_point));
  std::string manifest;
  for (uint64_t id : component_ids_) {
    manifest += std::to_string(id);
    manifest += '\n';
  }
  return WriteStringToFileAtomic(dir_ + "/" + kCurrentFile, manifest);
}

Status LsmBTree::Write(const Slice& key, const Slice& value, bool tombstone) {
  if (inserts_ != nullptr) inserts_->Increment();
  std::string stored;
  stored.reserve(value.size() + 1);
  stored.push_back(tombstone ? kTombstoneMarker : kPutMarker);
  stored.append(value.data(), value.size());

  auto [it, inserted] =
      memtable_.insert_or_assign(key.ToString(), std::move(stored));
  if (inserted) {
    memtable_bytes_ += key.size() + it->second.size() + 64;  // map overhead
  }
  if (tombstone) ++tombstones_;
  if (memtable_bytes_ > memtable_budget_) {
    PREGELIX_RETURN_NOT_OK(FlushMemtable());
  }
  return Status::OK();
}

Status LsmBTree::Upsert(const Slice& key, const Slice& value) {
  return Write(key, value, /*tombstone=*/false);
}

Status LsmBTree::Delete(const Slice& key) {
  return Write(key, Slice(), /*tombstone=*/true);
}

Status LsmBTree::Get(const Slice& key, std::string* value) {
  if (probes_ != nullptr) probes_->Increment();
  auto it = memtable_.find(key.ToString());
  if (it != memtable_.end()) {
    if (it->second[0] == kTombstoneMarker) return Status::NotFound();
    value->assign(it->second.data() + 1, it->second.size() - 1);
    return Status::OK();
  }
  for (const auto& component : components_) {
    std::string stored;
    Status s = component->Get(key, &stored);
    if (s.IsNotFound()) continue;
    PREGELIX_RETURN_NOT_OK(s);
    if (stored[0] == kTombstoneMarker) return Status::NotFound();
    value->assign(stored.data() + 1, stored.size() - 1);
    return Status::OK();
  }
  return Status::NotFound();
}

Status LsmBTree::FlushMemtable() {
  if (memtable_.empty()) return Status::OK();
  TraceSpan span(cache_->tracer(), "lsm.flush_memtable", trace_cat::kStorage,
                 cache_->worker_id());
  span.AddArg("entries", static_cast<int64_t>(memtable_.size()));
  span.AddArg("bytes", static_cast<int64_t>(memtable_bytes_));
  const uint64_t id = next_component_id_++;
  std::unique_ptr<BTree> component;
  PREGELIX_RETURN_NOT_OK(BTree::Open(cache_, ComponentPath(id), &component));
  std::unique_ptr<IndexBulkLoader> loader = component->NewBulkLoader();
  for (const auto& [key, stored] : memtable_) {
    PREGELIX_RETURN_NOT_OK(loader->Add(key, stored));
  }
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("lsm.flush"));
  PREGELIX_RETURN_NOT_OK(loader->Finish());
  // Make the component durable before committing it: CURRENT must never
  // reference pages still sitting dirty in the cache. On any failure before
  // the commit the memtable stays intact (a retry re-flushes everything)
  // and the half-built file is an orphan that reopen deletes.
  PREGELIX_RETURN_NOT_OK(component->Flush());
  components_.insert(components_.begin(), std::move(component));
  component_ids_.insert(component_ids_.begin(), id);
  Status commit = WriteCurrent("lsm.flush.commit");
  if (!commit.ok()) {
    Status d = components_.front()->Destroy();
    (void)d;  // best effort: reopen also sweeps orphans
    components_.erase(components_.begin());
    component_ids_.erase(component_ids_.begin());
    return commit;
  }
  memtable_.clear();
  memtable_bytes_ = 0;
  if (static_cast<int>(components_.size()) > kMaxComponents) {
    PREGELIX_RETURN_NOT_OK(MergeAll());
  }
  return Status::OK();
}

Status LsmBTree::MergeAll() {
  // A full merge includes the in-memory component, so tombstones can be
  // dropped and the entry count becomes exact afterwards. (FlushMemtable
  // re-enters MergeAll only when the stack is deep; by then the memtable is
  // empty, so the recursion terminates immediately.)
  if (!memtable_.empty()) {
    PREGELIX_RETURN_NOT_OK(FlushMemtable());
  }
  if (components_.size() <= 1) {
    tombstones_ = 0;
    return Status::OK();
  }
  TraceSpan span(cache_->tracer(), "lsm.merge", trace_cat::kStorage,
                 cache_->worker_id());
  span.AddArg("components", static_cast<int64_t>(components_.size()));
  // K-way merge of component iterators, newest component wins per key.
  struct Cursor {
    std::unique_ptr<IndexIterator> it;
    int priority;  // lower = newer
  };
  std::vector<Cursor> cursors;
  cursors.reserve(components_.size());
  for (size_t i = 0; i < components_.size(); ++i) {
    Cursor c{components_[i]->NewIterator(), static_cast<int>(i)};
    PREGELIX_RETURN_NOT_OK(c.it->SeekToFirst());
    cursors.push_back(std::move(c));
  }

  const uint64_t merged_id = next_component_id_++;
  std::unique_ptr<BTree> merged;
  PREGELIX_RETURN_NOT_OK(BTree::Open(cache_, ComponentPath(merged_id), &merged));
  std::unique_ptr<IndexBulkLoader> loader = merged->NewBulkLoader();

  for (;;) {
    // Find the smallest key among valid cursors; ties go to the newest.
    int best = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].it->Valid()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const int cmp = cursors[i].it->key().compare(cursors[best].it->key());
      if (cmp < 0 ||
          (cmp == 0 && cursors[i].priority < cursors[best].priority)) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    const std::string key = cursors[best].it->key().ToString();
    const std::string stored = cursors[best].it->value().ToString();
    // Advance every cursor past this key (drops older duplicates).
    for (auto& cursor : cursors) {
      while (cursor.it->Valid() && cursor.it->key() == Slice(key)) {
        PREGELIX_RETURN_NOT_OK(cursor.it->Next());
      }
    }
    if (!stored.empty() && stored[0] == kTombstoneMarker) {
      continue;  // fully merged: tombstones can be dropped
    }
    PREGELIX_RETURN_NOT_OK(loader->Add(key, stored));
  }
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("lsm.merge"));
  PREGELIX_RETURN_NOT_OK(loader->Finish());
  PREGELIX_RETURN_NOT_OK(merged->Flush());

  // Commit: CURRENT flips to the merged component alone, *then* the old
  // components are deleted. A crash before the flip keeps the old stack
  // (merged file becomes an orphan); a crash after it keeps only the merged
  // component (the stale files become orphans). Neither order loses keys or
  // resurrects tombstoned ones.
  cursors.clear();
  std::vector<std::unique_ptr<BTree>> old = std::move(components_);
  std::vector<uint64_t> old_ids = std::move(component_ids_);
  components_.clear();
  components_.push_back(std::move(merged));
  component_ids_.assign(1, merged_id);
  Status commit = WriteCurrent("lsm.merge.commit");
  if (!commit.ok()) {
    // Roll back in memory; the merged file is an orphan for reopen to sweep.
    Status d = components_.front()->Destroy();
    (void)d;
    components_ = std::move(old);
    component_ids_ = std::move(old_ids);
    return commit;
  }
  for (auto& component : old) {
    PREGELIX_RETURN_NOT_OK(component->Destroy());
  }
  tombstones_ = 0;
  return Status::OK();
}

uint64_t LsmBTree::num_entries() const {
  uint64_t n = 0;
  for (const auto& component : components_) n += component->num_entries();
  n += memtable_.size();
  return n > tombstones_ ? n - tombstones_ : 0;
}

Status LsmBTree::Flush() {
  PREGELIX_RETURN_NOT_OK(FlushMemtable());
  for (auto& component : components_) {
    PREGELIX_RETURN_NOT_OK(component->Flush());
  }
  return Status::OK();
}

Status LsmBTree::Destroy() {
  if (destroyed_) return Status::OK();
  destroyed_ = true;
  Status result;
  for (auto& component : components_) {
    Status s = component->Destroy();
    if (!s.ok() && result.ok()) result = s;
  }
  components_.clear();
  component_ids_.clear();
  memtable_.clear();
  DeleteFileIfExists(dir_ + "/" + kCurrentFile);
  return result;
}

// ---------------------------------------------------------------------------
// Iterator: merge of memtable + disk components with tombstone suppression.

/// One cursor per disk component, opened with the iterator and moved
/// forward by its seeks. key()/value() are views into the source that holds
/// the current entry; a source shadowed by a newer one on the same key
/// stays on it until the cursor moves past that key.
///
/// While the iterator is valid, each component cursor sits on its first
/// key at or past the current key (or has run off its component). A seek
/// to a target at or past the current key therefore leaves alone every
/// component cursor that has run off or is already at or past the target:
/// a seek would put it where it is.
class LsmIterator : public IndexIterator {
 public:
  explicit LsmIterator(LsmBTree* lsm) : lsm_(lsm), probes_(lsm->probes_) {
    for (auto& component : lsm_->components_) {
      disk_.push_back(component->NewIterator());
    }
  }
  ~LsmIterator() override {
    if (probes_ != nullptr) probes_->Add(seeks_);
  }

  Status SeekToFirst() override {
    mem_it_ = lsm_->memtable_.begin();
    for (auto& it : disk_) PREGELIX_RETURN_NOT_OK(it->SeekToFirst());
    return FindLive();
  }

  Status Seek(const Slice& target) override {
    ++seeks_;
    mem_it_ = lsm_->memtable_.lower_bound(target.ToString());
    const bool forward = valid_ && key_.compare(target) <= 0;
    for (auto& it : disk_) {
      if (forward && (!it->Valid() || it->key().compare(target) >= 0)) {
        continue;
      }
      PREGELIX_RETURN_NOT_OK(it->Seek(target));
    }
    return FindLive();
  }

  bool Valid() const override { return valid_; }

  Status Next() override {
    PREGELIX_RETURN_NOT_OK(SkipKey(key_));
    return FindLive();
  }

  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  Status TryOverwriteValue(const Slice& /*value*/, bool* written) override {
    *written = false;
    return Status::OK();
  }

 private:
  /// Positions on the smallest live key across the memtable and the disk
  /// cursors: the newest source wins a tie, and a tombstone hides the key.
  Status FindLive() {
    valid_ = false;
    for (;;) {
      bool found = false;
      Slice best;
      Slice stored;
      if (mem_it_ != lsm_->memtable_.end()) {
        found = true;
        best = Slice(mem_it_->first);
        stored = Slice(mem_it_->second);
      }
      for (auto& it : disk_) {  // newest first: a tie keeps the newer one
        if (!it->Valid()) continue;
        if (!found || it->key().compare(best) < 0) {
          found = true;
          best = it->key();
          stored = it->value();
        }
      }
      if (!found) return Status::OK();  // exhausted
      if (stored.empty() || stored[0] != kTombstoneMarker) {
        key_ = best;
        value_ = stored.empty() ? stored
                                : Slice(stored.data() + 1, stored.size() - 1);
        valid_ = true;
        return Status::OK();
      }
      PREGELIX_RETURN_NOT_OK(SkipKey(best));
    }
  }

  /// Moves every source holding `key` past it.
  Status SkipKey(const Slice& key) {
    skipped_.assign(key.data(), key.size());  // `key` dies with its source
    const Slice k(skipped_);
    if (mem_it_ != lsm_->memtable_.end() && Slice(mem_it_->first) == k) {
      ++mem_it_;
    }
    for (auto& it : disk_) {
      if (it->Valid() && it->key() == k) PREGELIX_RETURN_NOT_OK(it->Next());
    }
    return Status::OK();
  }

  LsmBTree* lsm_;
  std::map<std::string, std::string>::const_iterator mem_it_;
  std::vector<std::unique_ptr<IndexIterator>> disk_;
  bool valid_ = false;
  Slice key_;
  Slice value_;
  std::string skipped_;
  Counter* probes_;
  uint64_t seeks_ = 0;
};

std::unique_ptr<IndexIterator> LsmBTree::NewIterator() {
  return std::make_unique<LsmIterator>(this);
}

// ---------------------------------------------------------------------------
// Bulk load

class LsmBulkLoader : public IndexBulkLoader {
 public:
  LsmBulkLoader(LsmBTree* lsm, uint64_t id, std::unique_ptr<BTree> component,
                std::unique_ptr<IndexBulkLoader> inner)
      : lsm_(lsm),
        id_(id),
        component_(std::move(component)),
        inner_(std::move(inner)) {}

  Status Add(const Slice& key, const Slice& value) override {
    std::string stored;
    stored.reserve(value.size() + 1);
    stored.push_back(0);
    stored.append(value.data(), value.size());
    return inner_->Add(key, stored);
  }

  Status Finish() override {
    PREGELIX_RETURN_NOT_OK(inner_->Finish());
    PREGELIX_RETURN_NOT_OK(component_->Flush());
    lsm_->components_.insert(lsm_->components_.begin(), std::move(component_));
    lsm_->component_ids_.insert(lsm_->component_ids_.begin(), id_);
    Status commit = lsm_->WriteCurrent("lsm.flush.commit");
    if (!commit.ok()) {
      Status d = lsm_->components_.front()->Destroy();
      (void)d;
      lsm_->components_.erase(lsm_->components_.begin());
      lsm_->component_ids_.erase(lsm_->component_ids_.begin());
    }
    return commit;
  }

 private:
  LsmBTree* lsm_;
  uint64_t id_;
  std::unique_ptr<BTree> component_;
  std::unique_ptr<IndexBulkLoader> inner_;
};

std::unique_ptr<IndexBulkLoader> LsmBTree::NewBulkLoader() {
  const uint64_t id = next_component_id_++;
  std::unique_ptr<BTree> component;
  Status s = BTree::Open(cache_, ComponentPath(id), &component);
  PREGELIX_CHECK(s.ok()) << s.ToString();
  std::unique_ptr<IndexBulkLoader> inner = component->NewBulkLoader();
  return std::make_unique<LsmBulkLoader>(this, id, std::move(component),
                                         std::move(inner));
}

}  // namespace pregelix
