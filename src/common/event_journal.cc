#include "common/event_journal.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"

namespace pregelix {

namespace {

int64_t NowWallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

uint64_t NowSteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void WriteEventJson(std::ostream& os, const JournalEvent& e) {
  os << "{\"seq\":" << e.seq << ",\"wall_us\":" << e.wall_us
     << ",\"steady_ns\":" << e.steady_ns << ",\"category\":\"";
  AppendJsonEscaped(os, e.category);
  os << "\",\"job\":\"";
  AppendJsonEscaped(os, e.job_id);
  os << "\",\"superstep\":" << e.superstep << ",\"kv\":{";
  bool first = true;
  for (const auto& [k, v] : e.kv) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    AppendJsonEscaped(os, k);
    os << "\":\"";
    AppendJsonEscaped(os, v);
    os << "\"";
  }
  os << "}}";
}

EventJournal::EventJournal(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  MutexLock lock(&mutex_);
  ring_.resize(capacity_);
}

uint64_t EventJournal::Append(
    const std::string& category, const std::string& job_id, int64_t superstep,
    std::vector<std::pair<std::string, std::string>> kv) {
  JournalEvent e;
  e.wall_us = NowWallMicros();
  e.steady_ns = NowSteadyNanos();
  e.category = category;
  e.job_id = job_id;
  e.superstep = superstep;
  e.kv = std::move(kv);

  MutexLock lock(&mutex_);
  e.seq = next_seq_++;
  const uint64_t seq = e.seq;
  if (spill_open_) {
    WriteEventJson(spill_, e);
    spill_ << "\n";
    spill_.flush();
  }
  ring_[static_cast<size_t>(seq % capacity_)] = std::move(e);
  return seq;
}

std::vector<JournalEvent> EventJournal::SnapshotSince(uint64_t since_seq,
                                                      size_t limit) const {
  std::vector<JournalEvent> out;
  MutexLock lock(&mutex_);
  const uint64_t last = next_seq_ - 1;
  if (last == 0) return out;
  const uint64_t oldest =
      last > capacity_ ? last - capacity_ + 1 : uint64_t{1};
  uint64_t first = std::max(oldest, since_seq + 1);
  if (first > last) return out;
  if (limit > 0 && last - first + 1 > limit) first = last - limit + 1;
  out.reserve(static_cast<size_t>(last - first + 1));
  for (uint64_t s = first; s <= last; ++s) {
    out.push_back(ring_[static_cast<size_t>(s % capacity_)]);
  }
  return out;
}

void EventJournal::WriteJsonl(std::ostream& os, uint64_t since_seq,
                              size_t limit) const {
  for (const JournalEvent& e : SnapshotSince(since_seq, limit)) {
    WriteEventJson(os, e);
    os << "\n";
  }
}

Status EventJournal::DumpTail(const std::string& path,
                              size_t max_events) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open journal tail output " + path);
  }
  WriteJsonl(out, 0, max_events);
  out.close();
  if (!out.good()) return Status::IoError("short write to " + path);
  return Status::OK();
}

Status EventJournal::SetSpillPath(const std::string& path) {
  MutexLock lock(&mutex_);
  if (spill_open_) {
    spill_.close();
    spill_open_ = false;
  }
  if (path.empty()) return Status::OK();
  spill_.open(path, std::ios::trunc);
  if (!spill_.is_open()) {
    return Status::IoError("cannot open journal spill " + path);
  }
  spill_open_ = true;
  return Status::OK();
}

void EventJournal::FlushSpill() {
  MutexLock lock(&mutex_);
  if (spill_open_) spill_.flush();
}

uint64_t EventJournal::last_seq() const {
  MutexLock lock(&mutex_);
  return next_seq_ - 1;
}

uint64_t EventJournal::dropped() const {
  MutexLock lock(&mutex_);
  const uint64_t last = next_seq_ - 1;
  return last > capacity_ ? last - capacity_ : 0;
}

EventJournal& EventJournal::Global() {
  static EventJournal* journal = new EventJournal();
  return *journal;
}

}  // namespace pregelix
