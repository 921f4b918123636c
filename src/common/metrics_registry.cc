#include "common/metrics_registry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "common/logging.h"

namespace pregelix {

namespace {

/// Registry map key: name plus normalized labels, using separators that
/// cannot appear in metric names.
std::string EntryKey(const std::string& name, const MetricLabels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels.kv) {
    key.push_back('\x01');
    key.append(k);
    key.push_back('\x02');
    key.append(v);
  }
  return key;
}

void WriteLabels(std::ostream& os, const MetricLabels& labels) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : labels.kv) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    AppendJsonEscaped(os, k);
    os << "\":\"";
    AppendJsonEscaped(os, v);
    os << "\"";
  }
  os << "}";
}

/// Prometheus metric-name sanitization: legal chars are [a-zA-Z0-9_:];
/// everything else (notably the '.' separators of our naming convention)
/// becomes '_', and a leading digit gets a '_' prefix.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Label-value escaping per the exposition format: backslash, double quote,
/// and line feed.
void AppendPromEscaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '\\':
        os << "\\\\";
        break;
      case '"':
        os << "\\\"";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
}

/// Writes `{k="v",...}` (or nothing when empty), with an optional extra
/// trailing pair — used for the `le` bound of histogram buckets.
void WritePromLabels(std::ostream& os, const MetricLabels& labels,
                     const char* extra_key = nullptr,
                     const std::string& extra_value = std::string()) {
  if (labels.kv.empty() && extra_key == nullptr) return;
  os << "{";
  bool first = true;
  for (const auto& [k, v] : labels.kv) {
    if (!first) os << ",";
    first = false;
    os << PromName(k) << "=\"";
    AppendPromEscaped(os, v);
    os << "\"";
  }
  if (extra_key != nullptr) {
    if (!first) os << ",";
    os << extra_key << "=\"";
    AppendPromEscaped(os, extra_value);
    os << "\"";
  }
  os << "}";
}

/// Inclusive upper bound of histogram bucket i: 0 for bucket 0 (which holds
/// only the value 0), 2^i - 1 for bucket i >= 1.
uint64_t BucketUpperBound(int i) {
  if (i <= 0) return 0;
  if (i >= 64) return ~0ull;
  return (uint64_t{1} << i) - 1;
}

}  // namespace

void MetricLabels::Normalize() {
  std::stable_sort(kv.begin(), kv.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  // Last write wins for duplicate keys.
  for (size_t i = 0; i + 1 < kv.size();) {
    if (kv[i].first == kv[i + 1].first) {
      kv.erase(kv.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void Histogram::Observe(uint64_t value) {
  int bucket = 0;
  if (value > 0) {
    bucket = 64 - __builtin_clzll(value);  // floor(log2(v)) + 1
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // Release after the bucket update so a snapshot reading count (acquire)
  // sees every bucket increment it counts; with both relaxed, Percentile
  // could observe count == n but fewer than n bucket increments and walk
  // off the end of the populated buckets.
  count_.fetch_add(1, std::memory_order_release);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  p = std::max(0.0, std::min(100.0, p));
  // Rank of the requested observation (1-based ceiling).
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      if (i == 0) return 0;
      // Upper bound of bucket i = 2^i - 1; clamp to the observed max.
      const uint64_t upper =
          i >= 64 ? ~0ull : (uint64_t{1} << i) - 1;
      return std::min(upper, max());
    }
  }
  return max();
}

uint64_t Histogram::SnapshotBuckets(uint64_t out[kNumBuckets]) const {
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
    total += out[i];
  }
  return total;
}

MetricsRegistry::Entry* MetricsRegistry::GetOrCreateLocked(
    const std::string& name, MetricLabels labels, Kind kind) {
  labels.Normalize();
  const std::string key = EntryKey(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    PREGELIX_CHECK(it->second.kind == kind)
        << "metric " << name << " re-registered as a different kind";
    return &it->second;
  }
  Entry entry;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return &entries_.emplace(key, std::move(entry)).first->second;
}

const MetricsRegistry::Entry* MetricsRegistry::FindLocked(
    const std::string& name, const MetricLabels& labels) const {
  MetricLabels normalized = labels;
  normalized.Normalize();
  auto it = entries_.find(EntryKey(name, normalized));
  return it == entries_.end() ? nullptr : &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     MetricLabels labels) {
  MutexLock lock(&mutex_);
  return GetOrCreateLocked(name, std::move(labels), Kind::kCounter)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 MetricLabels labels) {
  MutexLock lock(&mutex_);
  return GetOrCreateLocked(name, std::move(labels), Kind::kGauge)
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels) {
  MutexLock lock(&mutex_);
  return GetOrCreateLocked(name, std::move(labels), Kind::kHistogram)
      ->histogram.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name,
                                       const MetricLabels& labels) const {
  MutexLock lock(&mutex_);
  const Entry* entry = FindLocked(name, labels);
  return entry != nullptr && entry->kind == Kind::kCounter
             ? entry->counter->value()
             : 0;
}

int64_t MetricsRegistry::GaugeValue(const std::string& name,
                                    const MetricLabels& labels) const {
  MutexLock lock(&mutex_);
  const Entry* entry = FindLocked(name, labels);
  return entry != nullptr && entry->kind == Kind::kGauge
             ? entry->gauge->value()
             : 0;
}

size_t MetricsRegistry::size() const {
  MutexLock lock(&mutex_);
  return entries_.size();
}

uint64_t MetricsRegistry::SumCounters(const std::string& name) const {
  MutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.kind == Kind::kCounter && entry.name == name) {
      total += entry.counter->value();
    }
  }
  return total;
}

void MetricsRegistry::WriteKindLocked(std::ostream& os, Kind kind) const {
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != kind) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    AppendJsonEscaped(os, entry.name);
    os << "\",\"labels\":";
    WriteLabels(os, entry.labels);
    switch (kind) {
      case Kind::kCounter:
        os << ",\"value\":" << entry.counter->value();
        break;
      case Kind::kGauge:
        os << ",\"value\":" << entry.gauge->value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        char mean[32];
        snprintf(mean, sizeof(mean), "%.3f", h.mean());
        os << ",\"count\":" << h.count() << ",\"sum\":" << h.sum()
           << ",\"mean\":" << mean << ",\"p50\":" << h.Percentile(50)
           << ",\"p90\":" << h.Percentile(90)
           << ",\"p99\":" << h.Percentile(99) << ",\"max\":" << h.max();
        break;
      }
    }
    os << "}";
  }
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  MutexLock lock(&mutex_);
  os << "{\"counters\":[";
  WriteKindLocked(os, Kind::kCounter);
  os << "],\"gauges\":[";
  WriteKindLocked(os, Kind::kGauge);
  os << "],\"histograms\":[";
  WriteKindLocked(os, Kind::kHistogram);
  os << "]}";
}

Status MetricsRegistry::ExportJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open metrics output " + path);
  }
  WriteJson(out);
  out.close();
  if (!out.good()) return Status::IoError("short write to " + path);
  return Status::OK();
}

void MetricsRegistry::WritePrometheus(std::ostream& os) const {
  MutexLock lock(&mutex_);
  // entries_ is keyed name + '\x01' + labels, so all series of one family
  // are contiguous: emit HELP/TYPE once per family boundary.
  std::string current_family;
  bool any_family = false;
  for (const auto& [key, entry] : entries_) {
    const std::string pname = PromName(entry.name);
    if (!any_family || entry.name != current_family) {
      any_family = true;
      current_family = entry.name;
      const char* type = entry.kind == Kind::kCounter   ? "counter"
                         : entry.kind == Kind::kGauge   ? "gauge"
                                                        : "histogram";
      os << "# HELP " << pname << " " << entry.name << "\n";
      os << "# TYPE " << pname << " " << type << "\n";
    }
    switch (entry.kind) {
      case Kind::kCounter:
        os << pname;
        WritePromLabels(os, entry.labels);
        os << " " << entry.counter->value() << "\n";
        break;
      case Kind::kGauge:
        os << pname;
        WritePromLabels(os, entry.labels);
        os << " " << entry.gauge->value() << "\n";
        break;
      case Kind::kHistogram: {
        // Snapshot the buckets once and derive _count from the snapshot so
        // the +Inf bucket equals _count under concurrent Observe.
        uint64_t buckets[Histogram::kNumBuckets];
        const uint64_t total =
            entry.histogram->SnapshotBuckets(buckets);
        int highest = 0;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          if (buckets[i] != 0) highest = i;
        }
        uint64_t cumulative = 0;
        for (int i = 0; i <= highest; ++i) {
          cumulative += buckets[i];
          os << pname << "_bucket";
          WritePromLabels(os, entry.labels, "le",
                          std::to_string(BucketUpperBound(i)));
          os << " " << cumulative << "\n";
        }
        os << pname << "_bucket";
        WritePromLabels(os, entry.labels, "le", "+Inf");
        os << " " << total << "\n";
        os << pname << "_sum";
        WritePromLabels(os, entry.labels);
        os << " " << entry.histogram->sum() << "\n";
        os << pname << "_count";
        WritePromLabels(os, entry.labels);
        os << " " << total << "\n";
        break;
      }
    }
  }
}

Status MetricsRegistry::ExportPrometheus(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open metrics output " + path);
  }
  WritePrometheus(out);
  out.close();
  if (!out.good()) return Status::IoError("short write to " + path);
  return Status::OK();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace pregelix
