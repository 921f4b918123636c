#include "common/trace.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "common/json.h"
#include "common/time_ledger.h"

namespace pregelix {

namespace {

std::atomic<uint64_t> g_tracer_id_counter{1};

}  // namespace

Tracer::Tracer()
    : tracer_id_(g_tracer_id_counter.fetch_add(1)),
      epoch_ns_(TimeLedger::NowNs()) {}

Tracer::~Tracer() = default;

uint64_t Tracer::NowMicros() const { return MicrosAt(TimeLedger::NowNs()); }

uint64_t Tracer::MicrosAt(uint64_t ledger_ns) const {
  return (ledger_ns - epoch_ns_) / 1000;
}

Tracer::ThreadBuffer* Tracer::GetThreadBuffer() {
  // Per-thread cache of (tracer id -> buffer). Ids are process-unique and
  // never reused, so a stale entry for a destroyed tracer can never be hit
  // through a live tracer's lookup.
  thread_local std::vector<std::pair<uint64_t, ThreadBuffer*>> tl_buffers;
  for (const auto& [id, buffer] : tl_buffers) {
    if (id == tracer_id_) return buffer;
  }
  MutexLock lock(&registry_mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<int>(buffers_.size());
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tl_buffers.emplace_back(tracer_id_, raw);
  return raw;
}

void Tracer::Record(TraceEvent event) {
  ThreadBuffer* buffer = GetThreadBuffer();
  event.tid = buffer->tid;
  MutexLock lock(&buffer->mutex);
  buffer->events.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(&registry_mutex_);
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mutex);
      out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  // Spans are appended to their buffer at End(), so a nested span precedes
  // its parent in insertion order. Sort by start time, breaking same-tick
  // ties by duration descending so an enclosing span always comes before
  // the spans it contains.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.duration_us > b.duration_us;
                   });
  return out;
}

size_t Tracer::event_count() const {
  MutexLock lock(&registry_mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(&buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

void Tracer::Clear() {
  MutexLock lock(&registry_mutex_);
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(&buffer->mutex);
    buffer->events.clear();
  }
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  const std::vector<TraceEvent> events = Collect();
  os << "{\"traceEvents\":[";
  bool first = true;
  // Name each pid track once: worker-N for simulated workers, driver for
  // the superstep loop.
  std::vector<int> workers;
  for (const TraceEvent& e : events) {
    if (std::find(workers.begin(), workers.end(), e.worker) ==
        workers.end()) {
      workers.push_back(e.worker);
    }
  }
  std::sort(workers.begin(), workers.end());
  for (int w : workers) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << w
       << ",\"tid\":0,\"args\":{\"name\":\""
       << (w == kTraceDriverWorker ? std::string("driver")
                                   : "worker-" + std::to_string(w))
       << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    AppendJsonEscaped(os, e.name);
    os << "\",\"cat\":\"";
    AppendJsonEscaped(os, e.category);
    os << "\",\"ph\":\"X\",\"pid\":" << e.worker << ",\"tid\":" << e.tid
       << ",\"ts\":" << e.start_us << ",\"dur\":" << e.duration_us;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) os << ",";
        first_arg = false;
        os << "\"";
        AppendJsonEscaped(os, key);
        os << "\":" << value;
      }
      os << "}";
    }
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

Status Tracer::ExportChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open trace output " + path);
  }
  WriteChromeTrace(out);
  out.close();
  if (!out.good()) return Status::IoError("short write to " + path);
  return Status::OK();
}

void Tracer::WriteSummaryJson(std::ostream& os) const {
  struct Agg {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t min_us = ~0ull;
    uint64_t max_us = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> aggs;
  for (const TraceEvent& e : Collect()) {
    Agg& a = aggs[{e.category, e.name}];
    ++a.count;
    a.total_us += e.duration_us;
    a.min_us = std::min(a.min_us, e.duration_us);
    a.max_us = std::max(a.max_us, e.duration_us);
  }
  std::vector<std::pair<std::pair<std::string, std::string>, Agg>> rows(
      aggs.begin(), aggs.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  os << "[";
  bool first = true;
  for (const auto& [key, a] : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"cat\":\"";
    AppendJsonEscaped(os, key.first);
    os << "\",\"name\":\"";
    AppendJsonEscaped(os, key.second);
    os << "\",\"count\":" << a.count << ",\"total_us\":" << a.total_us
       << ",\"min_us\":" << (a.count == 0 ? 0 : a.min_us)
       << ",\"max_us\":" << a.max_us << "}";
  }
  os << "]";
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace pregelix
