#include "common/time_ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/json.h"
#include "common/logging.h"
#include "common/metrics_registry.h"

namespace pregelix {

namespace {

/// Lock rows exported to Prometheus (top-k by wait time); the JSON surface
/// carries the full table.
constexpr size_t kPrometheusLockTopK = 16;

/// Pseudo-worker ids render as names; real workers as their index.
std::string WorkerKey(int worker) {
  switch (worker) {
    case TimeLedger::kDriverWorker:
      return "driver";
    case TimeLedger::kServerWorker:
      return "server";
    default:
      return std::to_string(worker);
  }
}

void AppendJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  AppendJsonEscaped(os, s);
  os << '"';
}

/// Nanoseconds as decimal seconds with full nanosecond precision, so the
/// ledger's Prometheus families and its JSON report identical totals.
void AppendSeconds(std::ostream& os, int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", static_cast<double>(ns) / 1e9);
  os << buf;
}

void WriteCategoryObject(
    std::ostream& os, const std::array<int64_t, kNumTimeCategories>& ns,
    bool nonzero_only) {
  os << '{';
  bool first = true;
  for (int c = 0; c < kNumTimeCategories; ++c) {
    if (nonzero_only && ns[c] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << kTimeCategoryNames[c] << "\":" << ns[c];
  }
  os << '}';
}

}  // namespace

int64_t TimeLedgerSnapshot::attributed_ns() const {
  int64_t sum = 0;
  for (int64_t v : category_ns) sum += v;
  return sum;
}

namespace ledger_internal {

/// Per-thread accounting state. The owner thread is the only writer of
/// `acc`/`current`/`last_switch_ns` (relaxed atomics so snapshots may read
/// them live); `stack` is owner-only and never read elsewhere.
struct ThreadRecord {
  int worker = 0;
  std::string label;
  uint64_t attach_ns = 0;
  std::atomic<int> current{static_cast<int>(TimeCategory::kCompute)};
  std::atomic<uint64_t> last_switch_ns{0};
  std::array<std::atomic<int64_t>, kNumTimeCategories> acc{};
  std::vector<int> stack;  ///< suspended parent categories, owner-only
};

}  // namespace ledger_internal

namespace {

thread_local ledger_internal::ThreadRecord* tls_record = nullptr;

/// Charges [last_switch, now) to the current category. Owner thread only;
/// `now` never precedes `last_switch_ns` there (same steady clock).
void Settle(ledger_internal::ThreadRecord* r, uint64_t now_ns) {
  const uint64_t last = r->last_switch_ns.load(std::memory_order_relaxed);
  r->acc[static_cast<size_t>(r->current.load(std::memory_order_relaxed))]
      .fetch_add(static_cast<int64_t>(now_ns - last),
                 std::memory_order_relaxed);
  r->last_switch_ns.store(now_ns, std::memory_order_relaxed);
}

}  // namespace

TimeLedger::TimeLedger() = default;
TimeLedger::~TimeLedger() = default;

TimeLedger& TimeLedger::Global() {
  // Deliberately leaked: worker threads may detach during process exit,
  // after static destructors would have run.
  static TimeLedger* instance = new TimeLedger();
  return *instance;
}

uint64_t TimeLedger::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool TimeLedger::CurrentThreadAttached() { return tls_record != nullptr; }

bool TimeLedger::AttachCurrentThread(int worker, TimeCategory base,
                                     std::string label) {
  TimeLedger& ledger = Global();
  if (tls_record != nullptr) return false;
  auto rec = std::make_unique<ThreadRecord>();
  rec->worker = worker;
  rec->label = std::move(label);
  const uint64_t now = NowNs();
  rec->attach_ns = now;
  rec->last_switch_ns.store(now, std::memory_order_relaxed);
  rec->current.store(static_cast<int>(base), std::memory_order_relaxed);
  tls_record = rec.get();
  std::lock_guard<std::mutex> lock(ledger.registry_mu_);
  ledger.live_.push_back(std::move(rec));
  return true;
}

LedgerAttachment TimeLedger::PeekCurrentThread() {
  LedgerAttachment out;
  ThreadRecord* r = tls_record;
  if (r == nullptr) return out;
  const uint64_t now = NowNs();
  Settle(r, now);
  out.start_ns = r->attach_ns;
  out.end_ns = now;
  for (int c = 0; c < kNumTimeCategories; ++c) {
    out.ns[static_cast<size_t>(c)] =
        r->acc[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  return out;
}

LedgerAttachment TimeLedger::DetachCurrentThread() {
  ThreadRecord* r = tls_record;
  if (r == nullptr) return LedgerAttachment{};
  TimeLedger& ledger = Global();
  const LedgerAttachment out = PeekCurrentThread();
  const uint64_t now = out.end_ns;
  // Guards that outlive their thread's attachment are misuse; the time they
  // bracketed is already settled, so conservation is unaffected.
  if (!r->stack.empty()) {
    ledger.misuse_count_.fetch_add(static_cast<int64_t>(r->stack.size()),
                                   std::memory_order_relaxed);
  }
  const int64_t elapsed = static_cast<int64_t>(out.elapsed_ns());
  int64_t attributed = 0;
  for (int64_t ns : out.ns) attributed += ns;
  const int64_t drift = elapsed - attributed;
  // Exact by construction: every transition settles against the same clock
  // this detach read. Any residue is a ledger bug, not measurement noise.
  PREGELIX_DCHECK(drift == 0)
      << "time ledger conservation violated on detach: elapsed " << elapsed
      << " ns vs attributed " << attributed << " ns (worker " << r->worker
      << ", label '" << r->label << "')";
  if (drift != 0) {
    ledger.unattributed_ns_.fetch_add(drift < 0 ? -drift : drift,
                                      std::memory_order_relaxed);
  }
  tls_record = nullptr;
  std::lock_guard<std::mutex> lock(ledger.registry_mu_);
  ledger.FoldLocked(r, now);
  for (auto it = ledger.live_.begin(); it != ledger.live_.end(); ++it) {
    if (it->get() == r) {
      ledger.live_.erase(it);
      break;
    }
  }
  return out;
}

void TimeLedger::FoldLocked(ThreadRecord* rec, uint64_t now_ns) {
  auto& folded = folded_[{rec->worker, rec->label}];
  for (int c = 0; c < kNumTimeCategories; ++c) {
    folded[static_cast<size_t>(c)] +=
        rec->acc[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  folded_elapsed_ns_ += static_cast<int64_t>(now_ns - rec->attach_ns);
}

void TimeLedger::Reattribute(TimeCategory to, uint64_t ns) {
  ThreadRecord* r = tls_record;
  if (r == nullptr || ns == 0) return;
  const uint64_t now = NowNs();
  Settle(r, now);
  const size_t cur =
      static_cast<size_t>(r->current.load(std::memory_order_relaxed));
  if (cur == static_cast<size_t>(to)) return;
  // Signed accumulators: a reattribution may transiently drive a bucket
  // negative; the sum — and so conservation — is untouched.
  r->acc[cur].fetch_sub(static_cast<int64_t>(ns), std::memory_order_relaxed);
  r->acc[static_cast<size_t>(to)].fetch_add(static_cast<int64_t>(ns),
                                            std::memory_order_relaxed);
}

void TimeLedger::ChargeLockWait(const char* lock_name, uint64_t ns) {
  ThreadRecord* r = tls_record;
  if (r == nullptr || ns == 0) return;
  Reattribute(TimeCategory::kLockWait, ns);
  Global().AddLockWait(lock_name, ns);
}

void TimeLedger::AddLockWait(const char* name, uint64_t ns) {
  for (LockSlot& slot : lock_slots_) {
    const char* cur = slot.name.load(std::memory_order_acquire);
    if (cur == nullptr) {
      if (!slot.name.compare_exchange_strong(cur, name,
                                             std::memory_order_acq_rel)) {
        // Lost the claim; `cur` now holds the winner's name.
        if (cur != name && std::strcmp(cur, name) != 0) continue;
      }
    } else if (cur != name && std::strcmp(cur, name) != 0) {
      continue;
    }
    slot.ns.fetch_add(static_cast<int64_t>(ns), std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  lock_overflow_.ns.fetch_add(static_cast<int64_t>(ns),
                              std::memory_order_relaxed);
  lock_overflow_.count.fetch_add(1, std::memory_order_relaxed);
}

TimeLedgerSnapshot TimeLedger::TakeSnapshot() const {
  TimeLedgerSnapshot snap;
  const uint64_t now = NowNs();
  std::map<std::pair<int, std::string>,
           std::array<int64_t, kNumTimeCategories>>
      cells;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    cells = folded_;
    snap.elapsed_ns = folded_elapsed_ns_;
    for (const auto& rec : live_) {
      auto& cell = cells[{rec->worker, rec->label}];
      for (int c = 0; c < kNumTimeCategories; ++c) {
        cell[static_cast<size_t>(c)] +=
            rec->acc[static_cast<size_t>(c)].load(std::memory_order_relaxed);
      }
      // In-flight time of the live thread's current interval. Racing the
      // owner's own settle can mis-slot up to one interval — snapshot
      // jitter only; detach-time accounting is exact.
      const uint64_t last =
          rec->last_switch_ns.load(std::memory_order_relaxed);
      const int cur = rec->current.load(std::memory_order_relaxed);
      if (now > last) {
        cell[static_cast<size_t>(cur)] += static_cast<int64_t>(now - last);
      }
      if (now > rec->attach_ns) {
        snap.elapsed_ns += static_cast<int64_t>(now - rec->attach_ns);
      }
    }
  }
  for (auto& [key, ns] : cells) {
    TimeLedgerSnapshot::Cell cell;
    cell.worker = key.first;
    cell.label = key.second;
    cell.ns = ns;
    for (int c = 0; c < kNumTimeCategories; ++c) {
      snap.category_ns[static_cast<size_t>(c)] += ns[static_cast<size_t>(c)];
    }
    snap.cells.push_back(std::move(cell));
  }
  std::map<std::string, std::pair<int64_t, int64_t>> locks;
  for (const LockSlot& slot : lock_slots_) {
    const char* name = slot.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    auto& row = locks[name];
    row.first += slot.ns.load(std::memory_order_relaxed);
    row.second += slot.count.load(std::memory_order_relaxed);
  }
  if (lock_overflow_.count.load(std::memory_order_relaxed) != 0) {
    auto& row = locks["other"];
    row.first += lock_overflow_.ns.load(std::memory_order_relaxed);
    row.second += lock_overflow_.count.load(std::memory_order_relaxed);
  }
  for (const auto& [name, row] : locks) {
    snap.locks.push_back({name, row.first, row.second});
  }
  std::stable_sort(snap.locks.begin(), snap.locks.end(),
                   [](const TimeLedgerSnapshot::LockWait& a,
                      const TimeLedgerSnapshot::LockWait& b) {
                     return a.ns > b.ns;
                   });
  snap.unattributed_ns = unattributed_ns_.load(std::memory_order_relaxed);
  snap.misuse_count = misuse_count_.load(std::memory_order_relaxed);
  return snap;
}

void TimeLedger::PublishMetrics(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("pregelix.ledger.unattributed_ns")
      ->Set(unattributed_ns_.load(std::memory_order_relaxed));
  registry->GetGauge("pregelix.ledger.guard_misuse")
      ->Set(misuse_count_.load(std::memory_order_relaxed));
}

void TimeLedger::WriteJson(std::ostream& os) const {
  const TimeLedgerSnapshot snap = TakeSnapshot();
  os << "{\"elapsed_ns\":" << snap.elapsed_ns
     << ",\"attributed_ns\":" << snap.attributed_ns()
     << ",\"unattributed_ns\":" << snap.unattributed_ns
     << ",\"guard_misuse\":" << snap.misuse_count << ",\"categories\":";
  WriteCategoryObject(os, snap.category_ns, /*nonzero_only=*/false);
  // Per-worker rollup (labels merged).
  std::map<int, std::array<int64_t, kNumTimeCategories>> by_worker;
  for (const auto& cell : snap.cells) {
    auto& w = by_worker[cell.worker];
    for (int c = 0; c < kNumTimeCategories; ++c) {
      w[static_cast<size_t>(c)] += cell.ns[static_cast<size_t>(c)];
    }
  }
  os << ",\"workers\":{";
  bool first = true;
  for (const auto& [worker, ns] : by_worker) {
    if (!first) os << ',';
    first = false;
    AppendJsonString(os, WorkerKey(worker));
    os << ':';
    WriteCategoryObject(os, ns, /*nonzero_only=*/true);
  }
  os << "},\"operators\":{";
  std::map<std::string, std::array<int64_t, kNumTimeCategories>> by_label;
  for (const auto& cell : snap.cells) {
    if (cell.label.empty()) continue;
    auto& l = by_label[cell.label];
    for (int c = 0; c < kNumTimeCategories; ++c) {
      l[static_cast<size_t>(c)] += cell.ns[static_cast<size_t>(c)];
    }
  }
  first = true;
  for (const auto& [label, ns] : by_label) {
    if (!first) os << ',';
    first = false;
    AppendJsonString(os, label);
    os << ':';
    WriteCategoryObject(os, ns, /*nonzero_only=*/true);
  }
  os << "},\"locks\":{";
  first = true;
  for (const auto& lw : snap.locks) {
    if (!first) os << ',';
    first = false;
    AppendJsonString(os, lw.name);
    os << ":{\"ns\":" << lw.ns << ",\"count\":" << lw.count << '}';
  }
  os << "}}";
}

void TimeLedger::WriteCollapsed(std::ostream& os) const {
  const TimeLedgerSnapshot snap = TakeSnapshot();
  for (const auto& cell : snap.cells) {
    for (int c = 0; c < kNumTimeCategories; ++c) {
      const int64_t ns = cell.ns[static_cast<size_t>(c)];
      if (ns <= 0) continue;
      os << WorkerKey(cell.worker) << ';'
         << (cell.label.empty() ? "-" : cell.label) << ';'
         << kTimeCategoryNames[c] << ' ' << ns << '\n';
    }
  }
}

void TimeLedger::WritePrometheus(std::ostream& os) const {
  const TimeLedgerSnapshot snap = TakeSnapshot();
  os << "# HELP pregelix_time_seconds_total Attributed worker wall time by "
        "ledger category (DESIGN.md section 20).\n"
        "# TYPE pregelix_time_seconds_total counter\n";
  std::map<int, std::array<int64_t, kNumTimeCategories>> by_worker;
  for (const auto& cell : snap.cells) {
    auto& w = by_worker[cell.worker];
    for (int c = 0; c < kNumTimeCategories; ++c) {
      w[static_cast<size_t>(c)] += cell.ns[static_cast<size_t>(c)];
    }
  }
  for (const auto& [worker, ns] : by_worker) {
    for (int c = 0; c < kNumTimeCategories; ++c) {
      if (ns[static_cast<size_t>(c)] == 0) continue;
      os << "pregelix_time_seconds_total{category=\"" << kTimeCategoryNames[c]
         << "\",worker=\"" << WorkerKey(worker) << "\"} ";
      AppendSeconds(os, ns[static_cast<size_t>(c)]);
      os << '\n';
    }
  }
  os << "# HELP pregelix_lock_wait_seconds_total Contended pregelix::Mutex "
        "wait time by static lock name (top-" << kPrometheusLockTopK
     << ").\n# TYPE pregelix_lock_wait_seconds_total counter\n";
  for (size_t i = 0; i < snap.locks.size() && i < kPrometheusLockTopK; ++i) {
    os << "pregelix_lock_wait_seconds_total{lock=\"" << snap.locks[i].name
       << "\"} ";
    AppendSeconds(os, snap.locks[i].ns);
    os << '\n';
  }
}

void TimeLedger::Reset() {
  const uint64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    folded_.clear();
    folded_elapsed_ns_ = 0;
    for (auto& rec : live_) {
      for (auto& a : rec->acc) a.store(0, std::memory_order_relaxed);
      rec->attach_ns = now;
      rec->last_switch_ns.store(now, std::memory_order_relaxed);
    }
  }
  for (LockSlot& slot : lock_slots_) {
    slot.ns.store(0, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
  }
  lock_overflow_.ns.store(0, std::memory_order_relaxed);
  lock_overflow_.count.store(0, std::memory_order_relaxed);
  unattributed_ns_.store(0, std::memory_order_relaxed);
  misuse_count_.store(0, std::memory_order_relaxed);
}

ScopedTimeCategory::ScopedTimeCategory(TimeCategory category) {
  ledger_internal::ThreadRecord* r = tls_record;
  if (r == nullptr) return;
  const uint64_t now = TimeLedger::NowNs();
  Settle(r, now);
  r->stack.push_back(r->current.load(std::memory_order_relaxed));
  r->current.store(static_cast<int>(category), std::memory_order_relaxed);
  record_ = r;
}

ScopedTimeCategory::~ScopedTimeCategory() {
  if (record_ == nullptr) return;  // created on an unattached thread
  ledger_internal::ThreadRecord* r = tls_record;
  if (r != record_ || r->stack.empty()) {
    // Destroyed on a different thread, after its thread detached, or
    // against an already-drained stack: count it, touch nothing. (The
    // pointer comparison never dereferences a possibly-freed record.)
    TimeLedger::Global().CountMisuse();
    return;
  }
  const uint64_t now = TimeLedger::NowNs();
  Settle(r, now);
  r->current.store(r->stack.back(), std::memory_order_relaxed);
  r->stack.pop_back();
}

}  // namespace pregelix
