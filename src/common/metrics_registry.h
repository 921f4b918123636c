#ifndef PREGELIX_COMMON_METRICS_REGISTRY_H_
#define PREGELIX_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

// Labeled metrics for the dataflow / storage / Pregel stack.
//
// A MetricsRegistry hands out pointers to named, labeled instruments
// (counters and gauges). Lookup-or-create takes the registry lock
// once; the returned pointer is stable for the registry's lifetime, so hot
// paths capture it at setup time and then pay one relaxed atomic op per
// update. This subsumes the five fixed WorkerMetrics counters: those remain
// the cost-model input, while the registry carries the labeled,
// per-operator / per-storage-tier breakdown the cost model cannot express.
//
// Naming convention (see DESIGN.md "Observability"):
//   pregelix.<layer>.<name>    e.g. pregelix.buffer.hits
// with labels such as operator, worker, superstep, storage_tier.

namespace pregelix {

/// Label set for one instrument. Keys are normalized (sorted, deduplicated
/// last-wins) so {a=1,b=2} and {b=2,a=1} name the same instrument.
struct MetricLabels {
  std::vector<std::pair<std::string, std::string>> kv;

  MetricLabels() = default;
  MetricLabels(
      std::initializer_list<std::pair<std::string, std::string>> init)
      : kv(init) {}

  MetricLabels& Add(std::string key, std::string value) {
    kv.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  void Normalize();
};

/// Monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Lookup-or-create. The returned pointer stays valid for the registry's
  /// lifetime; a (name, labels) pair always resolves to the same instrument.
  /// Registering the same name as two different instrument kinds aborts.
  Counter* GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, MetricLabels labels = {});

  /// Test/inspection helpers: value of an instrument, 0 if absent.
  uint64_t CounterValue(const std::string& name,
                        const MetricLabels& labels = {}) const;
  int64_t GaugeValue(const std::string& name,
                     const MetricLabels& labels = {}) const;

  /// Number of registered (name, labels) instruments.
  size_t size() const;

  /// Sums counter values across all label sets of `name`.
  uint64_t SumCounters(const std::string& name) const;

  /// Flat JSON dump:
  ///   {"counters":[{"name":...,"labels":{...},"value":N},...],
  ///    "gauges":[...]}
  /// Deterministically ordered by (name, labels).
  void WriteJson(std::ostream& os) const;
  Status ExportJson(const std::string& path) const;

  /// Prometheus text exposition (format version 0.0.4): one HELP/TYPE pair
  /// per metric family, metric names sanitized to [a-zA-Z0-9_:] ('.' maps
  /// to '_'), and label values escaped (backslash, double quote, newline).
  void WritePrometheus(std::ostream& os) const;
  Status ExportPrometheus(const std::string& path) const;

  /// Process-wide default instance.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge };

  struct Entry {
    std::string name;
    MetricLabels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
  };

  Entry* GetOrCreateLocked(const std::string& name, MetricLabels labels,
                           Kind kind) REQUIRES(mutex_);
  void WriteKindLocked(std::ostream& os, Kind kind) const REQUIRES(mutex_);
  const Entry* FindLocked(const std::string& name,
                          const MetricLabels& labels) const REQUIRES(mutex_);

  mutable Mutex mutex_{"metrics_registry", LockRank::kMetricsRegistry};
  /// Keyed by name + normalized labels; std::map keeps the JSON dump in a
  /// stable, diff-friendly order.
  std::map<std::string, Entry> entries_ GUARDED_BY(mutex_);
};

}  // namespace pregelix

#endif  // PREGELIX_COMMON_METRICS_REGISTRY_H_
