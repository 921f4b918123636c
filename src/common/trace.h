#ifndef PREGELIX_COMMON_TRACE_H_
#define PREGELIX_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

// Operator-level tracing for the dataflow / storage / Pregel stack.
//
// A Tracer records nested spans (name, category, worker, start, duration,
// integer args) into per-thread buffers: a recording thread appends to a
// buffer only it writes, so the hot path takes no shared lock (the registry
// lock is paid once per thread, when its buffer is created). Export produces
// either Chrome `trace_event` JSON — loadable in chrome://tracing and
// Perfetto, with one track per simulated worker — or a flat per-span-name
// summary for machine diffing.
//
// The timebase is the time ledger's clock (TimeLedger::NowNs), so an
// operator activation's event, which the executor builds from the ledger
// attachment it already measured (DESIGN.md §20), lines up with the spans.
//
// Cost when off: a span construction is one relaxed atomic load.

namespace pregelix {

/// Span categories; exported as the Chrome `cat` field. Free-form strings
/// are allowed, but the instrumented layers stick to this taxonomy so
/// traces can be filtered per layer (see DESIGN.md "Observability").
namespace trace_cat {
inline constexpr const char* kDataflow = "dataflow";
inline constexpr const char* kOperator = "operator";
inline constexpr const char* kStorage = "storage";
inline constexpr const char* kBuffer = "buffer";
inline constexpr const char* kPregel = "pregel";
}  // namespace trace_cat

/// Worker id used for spans emitted by the driver (the superstep loop),
/// which runs outside any simulated worker. Exported as its own track.
inline constexpr int kTraceDriverWorker = -1;

/// One completed span. `args` carries small integer annotations (superstep
/// number, tuple counts, ledger nanoseconds) into the Chrome `args` object.
struct TraceEvent {
  std::string name;
  const char* category = trace_cat::kDataflow;
  int worker = 0;
  int tid = 0;  ///< recording-thread track, assigned per thread buffer
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  std::vector<std::pair<std::string, int64_t>> args;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runtime switch. Spans started while disabled record nothing.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since this tracer was constructed (the trace timebase).
  uint64_t NowMicros() const;
  /// The timebase value of a TimeLedger::NowNs() reading taken after this
  /// tracer was constructed.
  uint64_t MicrosAt(uint64_t ledger_ns) const;

  /// Appends one finished event to the calling thread's buffer.
  void Record(TraceEvent event);

  /// Merged copy of all buffers, ordered by start time.
  std::vector<TraceEvent> Collect() const;

  /// Total recorded events across all thread buffers.
  size_t event_count() const;

  /// Drops all recorded events (buffers stay registered).
  void Clear();

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one "X" (complete)
  /// event per span plus process_name metadata naming each worker track.
  void WriteChromeTrace(std::ostream& os) const;
  Status ExportChromeTrace(const std::string& path) const;

  /// Flat aggregation: per (category, name) count / total / min / max
  /// microseconds, as a JSON array sorted by total descending.
  void WriteSummaryJson(std::ostream& os) const;

  /// Process-wide default instance (disabled until Enable()).
  static Tracer& Global();

 private:
  friend class TraceSpan;

  struct ThreadBuffer {
    /// Ranked after registry_mutex_: Collect/Clear/event_count hold the
    /// registry lock while visiting each buffer; the recording owner takes
    /// only its own buffer lock.
    mutable Mutex mutex{"trace_buffer", LockRank::kTraceBuffer};
    std::vector<TraceEvent> events GUARDED_BY(mutex);
    int tid = 0;  ///< written once at creation, by the owning thread
  };

  /// The calling thread's buffer for this tracer (created on first use).
  ThreadBuffer* GetThreadBuffer();

  const uint64_t tracer_id_;  ///< process-unique, never reused
  std::atomic<bool> enabled_{false};
  uint64_t epoch_ns_ = 0;  ///< TimeLedger::NowNs() origin of the timebase

  mutable Mutex registry_mutex_{"trace_registry", LockRank::kTraceRegistry};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      GUARDED_BY(registry_mutex_);
};

/// RAII span: records one complete event from construction to destruction.
/// When the tracer is null or disabled at construction time the span is
/// inert — destruction and AddArg cost nothing.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string name, const char* category,
            int worker)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    event_.name = std::move(name);
    event_.category = category;
    event_.worker = worker;
    event_.start_us = tracer_->NowMicros();
  }

  ~TraceSpan() { End(); }

  /// Attaches an integer annotation (exported into Chrome `args`).
  void AddArg(const char* key, int64_t value) {
    if (tracer_ != nullptr) event_.args.emplace_back(key, value);
  }

  bool active() const { return tracer_ != nullptr; }

  /// Ends the span early (idempotent).
  void End() {
    if (tracer_ == nullptr) return;
    event_.duration_us = tracer_->NowMicros() - event_.start_us;
    Tracer* t = tracer_;
    tracer_ = nullptr;
    t->Record(std::move(event_));
  }

 private:
  Tracer* tracer_ = nullptr;
  TraceEvent event_;

 public:
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

}  // namespace pregelix

#endif  // PREGELIX_COMMON_TRACE_H_
