#include "common/metrics_registry.h"

#include <algorithm>
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

/// Writes `{k="v",...}`, or nothing when empty.
void WritePromLabels(std::ostream& os, const MetricLabels& labels) {
  if (labels.kv.empty()) return;
  os << "{";
  bool first = true;
  for (const auto& [k, v] : labels.kv) {
    if (!first) os << ",";
    first = false;
    os << PromName(k) << "=\"";
    AppendPromEscaped(os, v);
    os << "\"";
  }
  os << "}";
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
      const char* type = entry.kind == Kind::kCounter ? "counter" : "gauge";
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
