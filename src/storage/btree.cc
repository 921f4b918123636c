#include "storage/btree.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logging.h"
#include "common/serde.h"

namespace pregelix {

namespace {

constexpr PageId kInvalidPage = 0xFFFFFFFFu;
constexpr size_t kHeaderSize = 16;
constexpr uint32_t kMetaMagic = 0x42545231;  // "BTR1"

// Page header fields (all pages except meta/overflow):
//   [0]  u8  level (0 = leaf)
//   [1]  u8  flags (unused)
//   [2]  u16 num_entries
//   [4]  u16 cell_start      -- lowest used cell byte; cells grow downward
//   [6]  u16 frag_bytes      -- reclaimable holes from deleted cells
//   [8]  u32 right_sibling   -- leaf chain
//   [12] u32 reserved
//
// Slot array: u16 cell offsets starting at kHeaderSize, in key order.
//
// Leaf cell:     u16 klen | u8 ovf | key | payload
//   payload (ovf=0): u32 vlen | value bytes
//   payload (ovf=1): u32 total_len | u32 head_page
// Interior cell: u16 klen | u8 0   | key | u32 child
//
// Overflow page: u32 next | u32 len | data
//
// Meta page (page 0): u32 magic | u32 root | u32 first_leaf | u32 height |
//                     u64 num_entries | u32 free_head

uint8_t Level(const char* p) { return static_cast<uint8_t>(p[0]); }
void SetLevel(char* p, uint8_t v) { p[0] = static_cast<char>(v); }
uint16_t NumEntries(const char* p) {
  return static_cast<uint16_t>(DecodeFixed32(p + 2) & 0xffff);
}
void SetNumEntries(char* p, uint16_t v) { memcpy(p + 2, &v, 2); }
uint16_t CellStart(const char* p) {
  uint16_t v;
  memcpy(&v, p + 4, 2);
  return v;
}
void SetCellStart(char* p, uint16_t v) { memcpy(p + 4, &v, 2); }
uint16_t FragBytes(const char* p) {
  uint16_t v;
  memcpy(&v, p + 6, 2);
  return v;
}
void SetFragBytes(char* p, uint16_t v) { memcpy(p + 6, &v, 2); }
PageId RightSibling(const char* p) { return DecodeFixed32(p + 8); }
void SetRightSibling(char* p, PageId v) { EncodeFixed32(p + 8, v); }

uint16_t SlotAt(const char* p, int i) {
  uint16_t v;
  memcpy(&v, p + kHeaderSize + 2 * i, 2);
  return v;
}
void SetSlotAt(char* p, int i, uint16_t v) {
  memcpy(p + kHeaderSize + 2 * i, &v, 2);
}

/// Key of the cell in slot i.
Slice CellKey(const char* p, int i) {
  const char* cell = p + SlotAt(p, i);
  uint16_t klen;
  memcpy(&klen, cell, 2);
  return Slice(cell + 3, klen);
}

/// Full cell bytes in slot i (requires knowing the cell's size).
size_t LeafCellSize(const char* cell) {
  uint16_t klen;
  memcpy(&klen, cell, 2);
  const uint8_t ovf = static_cast<uint8_t>(cell[2]);
  if (ovf != 0) return 3u + klen + 8u;
  const uint32_t vlen = DecodeFixed32(cell + 3 + klen);
  return 3u + klen + 4u + vlen;
}
size_t InteriorCellSize(const char* cell) {
  uint16_t klen;
  memcpy(&klen, cell, 2);
  return 3u + klen + 4u;
}
size_t CellSize(const char* page, int i) {
  const char* cell = page + SlotAt(page, i);
  return Level(page) == 0 ? LeafCellSize(cell) : InteriorCellSize(cell);
}

void InitNodePage(char* p, uint8_t level, size_t page_size) {
  memset(p, 0, kHeaderSize);
  SetLevel(p, level);
  SetNumEntries(p, 0);
  SetCellStart(p, static_cast<uint16_t>(page_size));
  SetFragBytes(p, 0);
  SetRightSibling(p, kInvalidPage);
}

size_t FreeSpace(const char* p) {
  return CellStart(p) - (kHeaderSize + 2u * NumEntries(p));
}

/// Binary search: index of the first slot with key >= target, in [lo, n];
/// the caller knows every slot below `lo` holds a smaller key.
/// Fast path shared with the sort/merge kernels: the target's 8-byte
/// normalized key prefix (slice.h) is computed once, each probed cell's
/// prefix is one unaligned load + byte swap, and the full memcmp runs only
/// on a prefix tie — with the 8-byte ordered vertex-id keys of the vertex
/// relation nearly every probe is settled by the integer compare.
int LowerBound(const char* p, const Slice& target, int lo = 0) {
  const uint64_t target_norm = NormalizedKeyPrefix(target);
  int hi = NumEntries(p);
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    const Slice key = CellKey(p, mid);
    const uint64_t key_norm = NormalizedKeyPrefix(key);
    const bool below = key_norm != target_norm ? key_norm < target_norm
                                               : key.compare(target) < 0;
    if (below) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Interior descent: last slot with key <= target, clamped to 0.
int ChildIndex(const char* p, const Slice& target) {
  const int lb = LowerBound(p, target);
  if (lb < NumEntries(p) && CellKey(p, lb) == target) return lb;
  return lb > 0 ? lb - 1 : 0;
}

PageId InteriorChild(const char* p, int i) {
  const char* cell = p + SlotAt(p, i);
  uint16_t klen;
  memcpy(&klen, cell, 2);
  return DecodeFixed32(cell + 3 + klen);
}

std::string MakeLeafCell(const Slice& key, const Slice& payload,
                         bool overflow) {
  std::string cell;
  const uint16_t klen = static_cast<uint16_t>(key.size());
  cell.append(reinterpret_cast<const char*>(&klen), 2);
  cell.push_back(overflow ? 1 : 0);
  cell.append(key.data(), key.size());
  cell.append(payload.data(), payload.size());
  return cell;
}

std::string MakeInteriorCell(const Slice& key, PageId child) {
  std::string cell;
  const uint16_t klen = static_cast<uint16_t>(key.size());
  cell.append(reinterpret_cast<const char*>(&klen), 2);
  cell.push_back(0);
  cell.append(key.data(), key.size());
  char buf[4];
  EncodeFixed32(buf, child);
  cell.append(buf, 4);
  return cell;
}

/// Appends a raw cell to a page that has room; inserts the slot at `pos`.
void AppendCell(char* p, int pos, const Slice& cell) {
  const uint16_t n = NumEntries(p);
  const uint16_t new_start =
      static_cast<uint16_t>(CellStart(p) - cell.size());
  memcpy(p + new_start, cell.data(), cell.size());
  // Shift slots [pos, n) right by one.
  memmove(p + kHeaderSize + 2 * (pos + 1), p + kHeaderSize + 2 * pos,
          2u * (n - pos));
  SetSlotAt(p, pos, new_start);
  SetCellStart(p, new_start);
  SetNumEntries(p, static_cast<uint16_t>(n + 1));
}

/// Removes slot `pos`, leaving the cell bytes as a hole.
void RemoveSlot(char* p, int pos) {
  const uint16_t n = NumEntries(p);
  const size_t dead = CellSize(p, pos);
  memmove(p + kHeaderSize + 2 * pos, p + kHeaderSize + 2 * (pos + 1),
          2u * (n - pos - 1));
  SetNumEntries(p, static_cast<uint16_t>(n - 1));
  SetFragBytes(p, static_cast<uint16_t>(FragBytes(p) + dead));
}

/// Rewrites the page with its live cells only, reclaiming holes.
void CompactPage(char* p, size_t page_size) {
  const uint16_t n = NumEntries(p);
  std::vector<std::string> cells;
  cells.reserve(n);
  for (int i = 0; i < n; ++i) {
    const char* cell = p + SlotAt(p, i);
    cells.emplace_back(cell, CellSize(p, i));
  }
  const uint8_t level = Level(p);
  const PageId sibling = RightSibling(p);
  InitNodePage(p, level, page_size);
  SetRightSibling(p, sibling);
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendCell(p, static_cast<int>(i), cells[i]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Open / meta

BTree::BTree(BufferCache* cache, int file_id)
    : cache_(cache), file_id_(file_id) {}

BTree::~BTree() {
  if (!destroyed_) {
    Status s = Flush();
    if (!s.ok()) {
      PLOG(Warn) << "btree flush on close failed: " << s.ToString();
    }
  }
}

Status BTree::Open(BufferCache* cache, const std::string& path,
                   std::unique_ptr<BTree>* out) {
  int file_id = -1;
  PREGELIX_RETURN_NOT_OK(cache->OpenFile(path, &file_id));
  std::unique_ptr<BTree> tree(new BTree(cache, file_id));
  if (cache->registry() != nullptr) {
    const MetricLabels labels{{"worker", std::to_string(cache->worker_id())},
                              {"storage_tier", "btree"}};
    tree->probes_ = cache->registry()->GetCounter("pregelix.storage.probes",
                                                  labels);
    tree->inserts_ = cache->registry()->GetCounter("pregelix.storage.inserts",
                                                   labels);
  }
  if (cache->NumPages(file_id) == 0) {
    // Fresh tree: meta page + empty leaf root.
    PageHandle meta;
    PREGELIX_RETURN_NOT_OK(cache->AllocatePage(file_id, &meta));
    PageHandle leaf;
    PREGELIX_RETURN_NOT_OK(cache->AllocatePage(file_id, &leaf));
    InitNodePage(leaf.data(), 0, cache->page_size());
    leaf.MarkDirty();
    tree->root_ = leaf.page_id();
    tree->first_leaf_ = leaf.page_id();
    tree->height_ = 1;
    tree->num_entries_ = 0;
    tree->free_head_ = kInvalidPage;
    meta.MarkDirty();
    leaf.Release();
    meta.Release();
    PREGELIX_RETURN_NOT_OK(tree->SaveMeta());
  } else {
    PREGELIX_RETURN_NOT_OK(tree->LoadMeta());
  }
  *out = std::move(tree);
  return Status::OK();
}

Status BTree::LoadMeta() {
  PageHandle meta;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, 0, &meta));
  const char* p = meta.data();
  if (DecodeFixed32(p) != kMetaMagic) {
    return Status::Corruption("btree meta magic mismatch");
  }
  root_ = DecodeFixed32(p + 4);
  first_leaf_ = DecodeFixed32(p + 8);
  height_ = static_cast<int>(DecodeFixed32(p + 12));
  num_entries_ = DecodeFixed64(p + 16);
  free_head_ = DecodeFixed32(p + 24);
  return Status::OK();
}

Status BTree::SaveMeta() {
  PageHandle meta;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, 0, &meta));
  char* p = meta.data();
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, root_);
  EncodeFixed32(p + 8, first_leaf_);
  EncodeFixed32(p + 12, static_cast<uint32_t>(height_));
  EncodeFixed64(p + 16, num_entries_);
  EncodeFixed32(p + 24, free_head_);
  meta.MarkDirty();
  return Status::OK();
}

Status BTree::Flush() {
  PREGELIX_RETURN_NOT_OK(SaveMeta());
  return cache_->FlushFile(file_id_);
}

Status BTree::Destroy() {
  // Once only: the cache hands a closed file's id to the next file opened.
  if (destroyed_) return Status::OK();
  destroyed_ = true;
  return cache_->DeleteFile(file_id_);
}

// ---------------------------------------------------------------------------
// Overflow chains

Status BTree::AllocOverflowPage(PageHandle* out, PageId* id) {
  if (free_head_ != kInvalidPage) {
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, free_head_, out));
    *id = free_head_;
    free_head_ = DecodeFixed32(out->data());
    return Status::OK();
  }
  PREGELIX_RETURN_NOT_OK(cache_->AllocatePage(file_id_, out));
  *id = out->page_id();
  return Status::OK();
}

Status BTree::EncodeLeafValue(const Slice& value, std::string* cell_payload,
                              bool* overflow) {
  const size_t inline_limit = cache_->page_size() / 4;
  if (value.size() <= inline_limit) {
    *overflow = false;
    cell_payload->clear();
    PutFixed32(cell_payload, static_cast<uint32_t>(value.size()));
    cell_payload->append(value.data(), value.size());
    return Status::OK();
  }
  *overflow = true;
  const size_t chunk = cache_->page_size() - 8;
  // Build the chain back to front so each page can point at the next.
  PageId next = kInvalidPage;
  size_t remaining = value.size();
  // Chunks: first page gets the first bytes; write pages from last chunk.
  size_t num_chunks = (value.size() + chunk - 1) / chunk;
  for (size_t c = num_chunks; c-- > 0;) {
    const size_t off = c * chunk;
    const size_t len = std::min(chunk, value.size() - off);
    PageHandle page;
    PageId id;
    PREGELIX_RETURN_NOT_OK(AllocOverflowPage(&page, &id));
    char* p = page.data();
    EncodeFixed32(p, next);
    EncodeFixed32(p + 4, static_cast<uint32_t>(len));
    memcpy(p + 8, value.data() + off, len);
    page.MarkDirty();
    next = id;
  }
  (void)remaining;
  cell_payload->clear();
  PutFixed32(cell_payload, static_cast<uint32_t>(value.size()));
  PutFixed32(cell_payload, next);  // head page
  return Status::OK();
}

Status BTree::ReadLeafValue(const Slice& cell_payload, bool overflow,
                            std::string* value) const {
  if (!overflow) {
    const uint32_t vlen = DecodeFixed32(cell_payload.data());
    value->assign(cell_payload.data() + 4, vlen);
    return Status::OK();
  }
  const uint32_t total = DecodeFixed32(cell_payload.data());
  PageId page_id = DecodeFixed32(cell_payload.data() + 4);
  value->clear();
  value->reserve(total);
  while (page_id != kInvalidPage && value->size() < total) {
    PageHandle page;
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, page_id, &page));
    const char* p = page.data();
    const PageId next = DecodeFixed32(p);
    const uint32_t len = DecodeFixed32(p + 4);
    value->append(p + 8, len);
    page_id = next;
  }
  if (value->size() != total) {
    return Status::Corruption("overflow chain truncated");
  }
  return Status::OK();
}

Status BTree::OverwriteOverflowChain(const Slice& cell_payload,
                                     const Slice& value) {
  PageId page_id = DecodeFixed32(cell_payload.data() + 4);
  size_t off = 0;
  while (page_id != kInvalidPage && off < value.size()) {
    PageHandle page;
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, page_id, &page));
    char* p = page.data();
    const uint32_t len = DecodeFixed32(p + 4);
    if (len > value.size() - off) break;
    memcpy(p + 8, value.data() + off, len);
    page.MarkDirty();
    off += len;
    page_id = DecodeFixed32(p);
  }
  if (off != value.size()) {
    return Status::Corruption("overflow chain does not hold the value");
  }
  return Status::OK();
}

Status BTree::FreeOverflowChain(const Slice& cell_payload) {
  PageId page_id = DecodeFixed32(cell_payload.data() + 4);
  while (page_id != kInvalidPage) {
    PageHandle page;
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, page_id, &page));
    const PageId next = DecodeFixed32(page.data());
    EncodeFixed32(page.data(), free_head_);
    page.MarkDirty();
    free_head_ = page_id;
    page_id = next;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Search

Status BTree::FindLeaf(const Slice& key, std::vector<PageId>* path_pages,
                       PageId* leaf, bool lower_fence) {
  PageId current = root_;
  for (;;) {
    if (path_pages != nullptr) path_pages->push_back(current);
    PageHandle page;
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, current, &page));
    char* p = page.data();
    if (Level(p) == 0) {
      *leaf = current;
      const int n = NumEntries(p);
      finger_version_ = n == 0 ? 0 : version_;
      if (n > 0) {
        const Slice first = CellKey(p, 0);
        const Slice last = CellKey(p, n - 1);
        finger_leaf_ = current;
        finger_first_.assign(first.data(), first.size());
        finger_last_.assign(last.data(), last.size());
      }
      return Status::OK();
    }
    PREGELIX_CHECK(NumEntries(p) > 0) << "empty interior node";
    if (lower_fence && NumEntries(p) > 0 && !CellKey(p, 0).empty() &&
        key.compare(CellKey(p, 0)) < 0) {
      // The key descends left of every separator: rewrite entry 0 with the
      // -infinity fence so future splits cannot insert a separator in front
      // of it. The fence cell is smaller than the one it replaces, so after
      // compaction it always fits.
      const PageId child0 = InteriorChild(p, 0);
      RemoveSlot(p, 0);
      const std::string fence = MakeInteriorCell(Slice(), child0);
      if (FreeSpace(p) < fence.size() + 2) {
        CompactPage(p, cache_->page_size());
      }
      AppendCell(p, 0, fence);
      page.MarkDirty();
    }
    current = InteriorChild(p, ChildIndex(p, key));
  }
}

Status BTree::Get(const Slice& key, std::string* value) {
  if (probes_ != nullptr) probes_->Increment();
  PageId leaf_id = finger_leaf_;
  if (!InFinger(key)) {
    PREGELIX_RETURN_NOT_OK(FindLeaf(key, nullptr, &leaf_id));
  }
  PageHandle page;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, leaf_id, &page));
  const char* p = page.data();
  const int pos = LowerBound(p, key);
  if (pos >= NumEntries(p) || CellKey(p, pos) != key) {
    return Status::NotFound();
  }
  const char* cell = p + SlotAt(p, pos);
  uint16_t klen;
  memcpy(&klen, cell, 2);
  const bool ovf = cell[2] != 0;
  const size_t payload_size = ovf ? 8 : 4 + DecodeFixed32(cell + 3 + klen);
  return ReadLeafValue(Slice(cell + 3 + klen, payload_size), ovf, value);
}

// ---------------------------------------------------------------------------
// Insert / split

Status BTree::Upsert(const Slice& key, const Slice& value) {
  if (inserts_ != nullptr) inserts_->Increment();
  PREGELIX_CHECK(key.size() + 64 < cache_->page_size() / 4)
      << "key too large for page size";
  // A key in the finger's range can only live in the finger leaf; the
  // root-to-leaf path is then fetched only if the cell has to be inserted.
  std::vector<PageId> path;
  PageId leaf_id = finger_leaf_;
  if (!InFinger(key)) {
    PREGELIX_RETURN_NOT_OK(
        FindLeaf(key, &path, &leaf_id, /*lower_fence=*/true));
  }

  PageHandle page;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, leaf_id, &page));
  char* p = page.data();
  const int pos = LowerBound(p, key);
  const bool exists = pos < NumEntries(p) && CellKey(p, pos) == key;
  char* old_cell = exists ? p + SlotAt(p, pos) : nullptr;
  char* old_payload = exists ? old_cell + 3 + key.size() : nullptr;
  if (exists && old_cell[2] == 0 &&
      DecodeFixed32(old_payload) == value.size()) {
    // Fast path: a same-length inline value is overwritten in place
    // (PageRank-style updates).
    memcpy(old_payload + 4, value.data(), value.size());
    page.MarkDirty();
    return Status::OK();
  }

  std::string payload;
  bool overflow = false;
  PREGELIX_RETURN_NOT_OK(EncodeLeafValue(value, &payload, &overflow));
  if (exists) {
    if (old_cell[2] != 0) {
      PREGELIX_RETURN_NOT_OK(FreeOverflowChain(Slice(old_payload, 8)));
    }
    RemoveSlot(p, pos);
    ++version_;
    --num_entries_;
    page.MarkDirty();
  }
  page.Release();
  if (path.empty()) {
    PREGELIX_RETURN_NOT_OK(
        FindLeaf(key, &path, &leaf_id, /*lower_fence=*/true));
  }
  ++num_entries_;
  return InsertIntoLeaf(key, MakeLeafCell(key, payload, overflow), path,
                        leaf_id);
}

Status BTree::InsertIntoLeaf(const Slice& key, const std::string& cell,
                             std::vector<PageId>& path, PageId leaf_id) {
  ++version_;
  PageHandle page;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, leaf_id, &page));
  char* p = page.data();
  const size_t page_size = cache_->page_size();
  int pos = LowerBound(p, key);

  if (FreeSpace(p) >= cell.size() + 2) {
    AppendCell(p, pos, cell);
    page.MarkDirty();
    return Status::OK();
  }
  if (FreeSpace(p) + FragBytes(p) >= cell.size() + 2) {
    CompactPage(p, page_size);
    AppendCell(p, pos, cell);
    page.MarkDirty();
    return Status::OK();
  }

  // Split: gather live cells plus the new one, in key order.
  const uint16_t n = NumEntries(p);
  std::vector<std::string> cells;
  cells.reserve(n + 1);
  for (int i = 0; i < n; ++i) {
    if (i == pos) cells.emplace_back(cell);
    const char* c = p + SlotAt(p, i);
    cells.emplace_back(c, CellSize(p, i));
  }
  if (pos == n) cells.emplace_back(cell);

  size_t total = 0;
  for (const auto& c : cells) total += c.size() + 2;
  size_t acc = 0;
  size_t split_at = 0;
  for (; split_at < cells.size() - 1; ++split_at) {
    acc += cells[split_at].size() + 2;
    if (acc >= total / 2) {
      ++split_at;
      break;
    }
  }
  if (split_at == 0) split_at = 1;
  if (split_at >= cells.size()) split_at = cells.size() - 1;

  PageHandle right;
  PREGELIX_RETURN_NOT_OK(cache_->AllocatePage(file_id_, &right));
  char* rp = right.data();
  InitNodePage(rp, 0, page_size);
  SetRightSibling(rp, RightSibling(p));

  const PageId sibling = RightSibling(p);
  (void)sibling;
  InitNodePage(p, 0, page_size);
  SetRightSibling(p, right.page_id());

  for (size_t i = 0; i < split_at; ++i) {
    AppendCell(p, static_cast<int>(i), cells[i]);
  }
  for (size_t i = split_at; i < cells.size(); ++i) {
    AppendCell(rp, static_cast<int>(i - split_at), cells[i]);
  }
  page.MarkDirty();
  right.MarkDirty();

  // Separator for the parent = first key of the right page.
  uint16_t klen;
  memcpy(&klen, cells[split_at].data(), 2);
  std::string sep(cells[split_at].data() + 3, klen);
  std::string left_first_key;
  memcpy(&klen, cells[0].data(), 2);
  left_first_key.assign(cells[0].data() + 3, klen);
  const PageId right_id = right.page_id();
  const PageId left_id = leaf_id;
  page.Release();
  right.Release();

  if (path.size() == 1) {
    return SplitRoot(left_first_key, left_id, sep, right_id, 1);
  }
  return InsertIntoInterior(path, path.size() - 2, sep, right_id);
}

Status BTree::InsertIntoInterior(std::vector<PageId>& path,
                                 size_t level_index, const std::string& sep,
                                 PageId child) {
  const PageId node_id = path[level_index];
  PageHandle page;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, node_id, &page));
  char* p = page.data();
  const size_t page_size = cache_->page_size();
  const std::string cell = MakeInteriorCell(sep, child);
  int pos = LowerBound(p, sep);

  if (FreeSpace(p) >= cell.size() + 2) {
    AppendCell(p, pos, cell);
    page.MarkDirty();
    return Status::OK();
  }
  if (FreeSpace(p) + FragBytes(p) >= cell.size() + 2) {
    CompactPage(p, page_size);
    AppendCell(p, pos, cell);
    page.MarkDirty();
    return Status::OK();
  }

  const uint16_t n = NumEntries(p);
  std::vector<std::string> cells;
  cells.reserve(n + 1);
  for (int i = 0; i < n; ++i) {
    if (i == pos) cells.emplace_back(cell);
    const char* c = p + SlotAt(p, i);
    cells.emplace_back(c, CellSize(p, i));
  }
  if (pos == n) cells.emplace_back(cell);

  size_t total = 0;
  for (const auto& c : cells) total += c.size() + 2;
  size_t acc = 0;
  size_t split_at = 0;
  for (; split_at < cells.size() - 1; ++split_at) {
    acc += cells[split_at].size() + 2;
    if (acc >= total / 2) {
      ++split_at;
      break;
    }
  }
  if (split_at == 0) split_at = 1;
  if (split_at >= cells.size()) split_at = cells.size() - 1;

  const uint8_t level = Level(p);
  PageHandle right;
  PREGELIX_RETURN_NOT_OK(cache_->AllocatePage(file_id_, &right));
  char* rp = right.data();
  InitNodePage(rp, level, page_size);
  InitNodePage(p, level, page_size);

  for (size_t i = 0; i < split_at; ++i) {
    AppendCell(p, static_cast<int>(i), cells[i]);
  }
  for (size_t i = split_at; i < cells.size(); ++i) {
    AppendCell(rp, static_cast<int>(i - split_at), cells[i]);
  }
  page.MarkDirty();
  right.MarkDirty();

  uint16_t klen;
  memcpy(&klen, cells[split_at].data(), 2);
  std::string up_sep(cells[split_at].data() + 3, klen);
  memcpy(&klen, cells[0].data(), 2);
  std::string left_first(cells[0].data() + 3, klen);
  const PageId right_id = right.page_id();
  page.Release();
  right.Release();

  if (level_index == 0) {
    return SplitRoot(left_first, node_id, up_sep, right_id,
                     static_cast<uint8_t>(level + 1));
  }
  return InsertIntoInterior(path, level_index - 1, up_sep, right_id);
}

Status BTree::SplitRoot(const std::string& left_key, PageId left,
                        const std::string& right_key, PageId right,
                        uint8_t level) {
  PageHandle page;
  PREGELIX_RETURN_NOT_OK(cache_->AllocatePage(file_id_, &page));
  char* p = page.data();
  InitNodePage(p, level, cache_->page_size());
  AppendCell(p, 0, MakeInteriorCell(left_key, left));
  AppendCell(p, 1, MakeInteriorCell(right_key, right));
  page.MarkDirty();
  root_ = page.page_id();
  ++height_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Delete

Status BTree::Delete(const Slice& key) {
  PageId leaf_id;
  PREGELIX_RETURN_NOT_OK(FindLeaf(key, nullptr, &leaf_id));
  PageHandle page;
  PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, leaf_id, &page));
  char* p = page.data();
  const int pos = LowerBound(p, key);
  if (pos >= NumEntries(p) || CellKey(p, pos) != key) {
    return Status::OK();  // idempotent
  }
  char* cell = p + SlotAt(p, pos);
  if (cell[2] != 0) {
    uint16_t klen;
    memcpy(&klen, cell, 2);
    PREGELIX_RETURN_NOT_OK(FreeOverflowChain(Slice(cell + 3 + klen, 8)));
  }
  RemoveSlot(p, pos);
  ++version_;
  page.MarkDirty();
  --num_entries_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Consistency check

namespace {
struct SubtreeInfo {
  std::string min_key;
  std::string max_key;
  PageId first_leaf;
  PageId last_leaf;
  int leaf_count;
};
}  // namespace

/// Recursive helper defined as a member-like free function via lambda below.
Status BTree::CheckConsistency() const {
  // Recursively verify a subtree; returns its key range and leaf span.
  std::function<Status(PageId, SubtreeInfo*)> check =
      [&](PageId page_id, SubtreeInfo* info) -> Status {
    PageHandle page;
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, page_id, &page));
    const char* p = page.data();
    const int n = NumEntries(p);
    for (int i = 1; i < n; ++i) {
      if (CellKey(p, i - 1).compare(CellKey(p, i)) >= 0) {
        return Status::Corruption("unsorted keys in page " +
                                  std::to_string(page_id));
      }
    }
    if (Level(p) == 0) {
      info->first_leaf = info->last_leaf = page_id;
      info->leaf_count = 1;
      if (n > 0) {
        info->min_key = CellKey(p, 0).ToString();
        info->max_key = CellKey(p, n - 1).ToString();
      }
      return Status::OK();
    }
    if (n == 0) {
      return Status::Corruption("empty interior page " +
                                std::to_string(page_id));
    }
    SubtreeInfo prev{};
    info->leaf_count = 0;
    for (int i = 0; i < n; ++i) {
      const std::string sep = CellKey(p, i).ToString();
      SubtreeInfo child{};
      PREGELIX_RETURN_NOT_OK(check(InteriorChild(p, i), &child));
      if (!child.min_key.empty() &&
          Slice(child.min_key).compare(Slice(sep)) < 0) {
        return Status::Corruption(
            "child min key below separator in page " +
            std::to_string(page_id) + " entry " + std::to_string(i) +
            " sep=" + std::to_string(DecodeOrderedI64(sep.data())) +
            " child_min=" +
            std::to_string(DecodeOrderedI64(child.min_key.data())) +
            " child_page=" + std::to_string(InteriorChild(p, i)));
      }
      if (i > 0 && !prev.max_key.empty() && !child.min_key.empty() &&
          Slice(prev.max_key).compare(Slice(child.min_key)) >= 0) {
        return Status::Corruption("overlapping children in page " +
                                  std::to_string(page_id));
      }
      if (i > 0) {
        // Leaf chain must connect adjacent subtrees.
        PageHandle left_leaf;
        PREGELIX_RETURN_NOT_OK(
            cache_->Pin(file_id_, prev.last_leaf, &left_leaf));
        if (RightSibling(left_leaf.data()) != child.first_leaf) {
          return Status::Corruption("broken leaf chain at page " +
                                    std::to_string(prev.last_leaf));
        }
      }
      if (i == 0) {
        info->min_key = child.min_key;
        info->first_leaf = child.first_leaf;
      }
      info->leaf_count += child.leaf_count;
      prev = child;
    }
    info->max_key = prev.max_key;
    info->last_leaf = prev.last_leaf;
    return Status::OK();
  };
  SubtreeInfo root_info{};
  PREGELIX_RETURN_NOT_OK(check(root_, &root_info));
  if (root_info.first_leaf != first_leaf_) {
    return Status::Corruption("first_leaf mismatch: meta says " +
                              std::to_string(first_leaf_) + " tree says " +
                              std::to_string(root_info.first_leaf));
  }
  return Status::OK();
}

void BTree::DumpStructure() const {
  std::function<void(PageId, int)> dump = [&](PageId page_id, int depth) {
    PageHandle page;
    Status s = cache_->Pin(file_id_, page_id, &page);
    if (!s.ok()) {
      fprintf(stderr, "%*spage %u: pin failed\n", depth * 2, "", page_id);
      return;
    }
    const char* p = page.data();
    const int n = NumEntries(p);
    fprintf(stderr, "%*spage %u level=%d n=%d sibling=%u keys:", depth * 2,
            "", page_id, Level(p), n, RightSibling(p));
    for (int i = 0; i < n; ++i) {
      const Slice k = CellKey(p, i);
      if (k.size() == 8) {
        fprintf(stderr, " %lld",
                static_cast<long long>(DecodeOrderedI64(k.data())));
      }
      if (Level(p) != 0) {
        fprintf(stderr, "->%u", InteriorChild(p, i));
      }
    }
    fprintf(stderr, "\n");
    if (Level(p) != 0) {
      for (int i = 0; i < n; ++i) {
        dump(InteriorChild(p, i), depth + 1);
      }
    }
  };
  fprintf(stderr, "BTree root=%u height=%d entries=%llu\n", root_, height_,
          static_cast<unsigned long long>(num_entries_));
  dump(root_, 0);
}

// ---------------------------------------------------------------------------
// Iterator

/// Keeps its current leaf pinned across Next/Seek and re-pins only when it
/// follows the right-sibling link or descends. key()/value() are views into
/// that leaf (an overflow value is assembled into `overflow_value_`), and a
/// same-length value is written back through them.
class BTreeIterator : public IndexIterator {
 public:
  BTreeIterator(BTree* tree, BufferCache* cache, int file_id)
      : tree_(tree),
        cache_(cache),
        file_id_(file_id),
        probes_(tree->probes_),
        inserts_(tree->inserts_) {}
  // Touches no tree: an exhausted cursor may outlive its tree.
  ~BTreeIterator() override {
    if (probes_ != nullptr) probes_->Add(seeks_);
    if (inserts_ != nullptr) inserts_->Add(overwrites_);
  }

  Status SeekToFirst() override {
    leaf_.Release();
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, tree_->first_leaf_, &leaf_));
    slot_ = 0;
    return SkipToValid();
  }

  Status Seek(const Slice& target) override {
    ++seeks_;
    // By the finger's rule, no cell was added or removed since the cursor
    // was positioned: between the current key and the leaf's last key, it
    // stays in the pinned leaf.
    if (valid_ && version_ == tree_->version_ && key_.compare(target) <= 0) {
      const char* p = leaf_.data();
      if (target.compare(CellKey(p, NumEntries(p) - 1)) <= 0) {
        slot_ = LowerBound(p, target, slot_);
        return SkipToValid();
      }
    }
    leaf_.Release();
    PageId leaf_id;
    PREGELIX_RETURN_NOT_OK(tree_->FindLeaf(target, nullptr, &leaf_id));
    PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, leaf_id, &leaf_));
    slot_ = LowerBound(leaf_.data(), target);
    return SkipToValid();
  }

  bool Valid() const override { return valid_; }

  Status Next() override {
    ++slot_;
    return SkipToValid();
  }

  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  Status TryOverwriteValue(const Slice& value, bool* written) override {
    *written = false;
    if (!valid_ || value.size() != value_.size()) return Status::OK();
    if (overflow_) {
      PREGELIX_RETURN_NOT_OK(
          tree_->OverwriteOverflowChain(Slice(payload_, 8), value));
      memmove(overflow_value_.data(), value.data(), value.size());
    } else {
      memmove(payload_ + 4, value.data(), value.size());
      leaf_.MarkDirty();
    }
    ++overwrites_;
    *written = true;
    return Status::OK();
  }

 private:
  /// Advances across empty leaves and exposes the entry at slot_; releases
  /// the leaf once the scan runs off the last one.
  Status SkipToValid() {
    valid_ = false;
    while (leaf_.valid()) {
      char* p = leaf_.data();
      if (slot_ < NumEntries(p)) {
        char* cell = p + SlotAt(p, slot_);
        uint16_t klen;
        memcpy(&klen, cell, 2);
        key_ = Slice(cell + 3, klen);
        payload_ = cell + 3 + klen;
        overflow_ = cell[2] != 0;
        if (overflow_) {
          PREGELIX_RETURN_NOT_OK(tree_->ReadLeafValue(
              Slice(payload_, 8), /*overflow=*/true, &overflow_value_));
          value_ = Slice(overflow_value_);
        } else {
          value_ = Slice(payload_ + 4, DecodeFixed32(payload_));
        }
        version_ = tree_->version_;
        valid_ = true;
        return Status::OK();
      }
      // Unpin before pinning the sibling, as a fresh pin per step would.
      const PageId next = RightSibling(p);
      leaf_.Release();
      slot_ = 0;
      if (next != kInvalidPage) {
        PREGELIX_RETURN_NOT_OK(cache_->Pin(file_id_, next, &leaf_));
      }
    }
    return Status::OK();
  }

  BTree* tree_;
  BufferCache* cache_;
  int file_id_;
  PageHandle leaf_;
  int slot_ = 0;
  bool valid_ = false;
  bool overflow_ = false;
  uint64_t version_ = 0;  ///< the tree's version_ when positioned
  Slice key_;
  Slice value_;
  char* payload_ = nullptr;  ///< the current cell's value payload
  std::string overflow_value_;
  Counter* probes_;
  Counter* inserts_;
  uint64_t seeks_ = 0;
  uint64_t overwrites_ = 0;
};

std::unique_ptr<IndexIterator> BTree::NewIterator() {
  return std::make_unique<BTreeIterator>(this, cache_, file_id_);
}

// ---------------------------------------------------------------------------
// Bulk load

/// Builds a tree bottom-up from sorted input, leaving ~10% slack per leaf so
/// later in-place updates rarely split immediately.
class BTreeBulkLoader : public IndexBulkLoader {
 public:
  explicit BTreeBulkLoader(BTree* tree) : tree_(tree) {}

  Status Add(const Slice& key, const Slice& value) override {
    PREGELIX_CHECK(!finished_);
    if (added_any_) {
      PREGELIX_CHECK(Slice(last_key_).compare(key) < 0)
          << "bulk load keys out of order";
    }
    last_key_ = key.ToString();
    added_any_ = true;

    std::string payload;
    bool overflow = false;
    PREGELIX_RETURN_NOT_OK(tree_->EncodeLeafValue(value, &payload, &overflow));
    const std::string cell = MakeLeafCell(key, payload, overflow);

    const size_t slack = tree_->cache_->page_size() / 10;
    if (!leaf_.valid() ||
        FreeSpace(leaf_.data()) < cell.size() + 2 + slack) {
      PREGELIX_RETURN_NOT_OK(NewLeaf(key));
    }
    char* p = leaf_.data();
    PREGELIX_CHECK(FreeSpace(p) >= cell.size() + 2)
        << "record larger than a bulk-load leaf";
    AppendCell(p, NumEntries(p), cell);
    leaf_.MarkDirty();
    ++tree_->num_entries_;
    ++tree_->version_;
    return Status::OK();
  }

  Status Finish() override {
    PREGELIX_CHECK(!finished_);
    finished_ = true;
    TraceSpan span(tree_->cache_->tracer(), "btree.bulk_load",
                   trace_cat::kStorage, tree_->cache_->worker_id());
    span.AddArg("entries", static_cast<int64_t>(tree_->num_entries_));
    leaf_.Release();
    if (level_entries_.empty()) {
      // Empty input: keep the existing empty root.
      return tree_->SaveMeta();
    }
    tree_->first_leaf_ = level_entries_.front().second;
    // Build interior levels until one node remains.
    std::vector<std::pair<std::string, PageId>> level =
        std::move(level_entries_);
    uint8_t lvl = 1;
    int height = 1;
    while (level.size() > 1) {
      std::vector<std::pair<std::string, PageId>> next;
      PageHandle node;
      PREGELIX_RETURN_NOT_OK(
          tree_->cache_->AllocatePage(tree_->file_id_, &node));
      InitNodePage(node.data(), lvl, tree_->cache_->page_size());
      next.emplace_back(level[0].first, node.page_id());
      for (const auto& [key, child] : level) {
        const std::string cell = MakeInteriorCell(key, child);
        if (FreeSpace(node.data()) < cell.size() + 2) {
          node.MarkDirty();
          node.Release();
          PREGELIX_RETURN_NOT_OK(
              tree_->cache_->AllocatePage(tree_->file_id_, &node));
          InitNodePage(node.data(), lvl, tree_->cache_->page_size());
          next.emplace_back(key, node.page_id());
        }
        AppendCell(node.data(), NumEntries(node.data()), cell);
        node.MarkDirty();
      }
      node.Release();
      level = std::move(next);
      ++lvl;
      ++height;
    }
    tree_->root_ = level[0].second;
    tree_->height_ = height;
    return tree_->SaveMeta();
  }

 private:
  Status NewLeaf(const Slice& first_key) {
    PageHandle next;
    PREGELIX_RETURN_NOT_OK(
        tree_->cache_->AllocatePage(tree_->file_id_, &next));
    InitNodePage(next.data(), 0, tree_->cache_->page_size());
    next.MarkDirty();
    if (leaf_.valid()) {
      SetRightSibling(leaf_.data(), next.page_id());
      leaf_.MarkDirty();
    }
    leaf_ = std::move(next);
    level_entries_.emplace_back(first_key.ToString(), leaf_.page_id());
    return Status::OK();
  }

  BTree* tree_;
  PageHandle leaf_;
  std::vector<std::pair<std::string, PageId>> level_entries_;
  std::string last_key_;
  bool added_any_ = false;
  bool finished_ = false;
};

std::unique_ptr<IndexBulkLoader> BTree::NewBulkLoader() {
  PREGELIX_CHECK(num_entries_ == 0) << "bulk load requires an empty tree";
  return std::make_unique<BTreeBulkLoader>(this);
}

}  // namespace pregelix
