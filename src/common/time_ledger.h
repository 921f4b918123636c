#ifndef PREGELIX_COMMON_TIME_LEDGER_H_
#define PREGELIX_COMMON_TIME_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

// Worker time ledger (DESIGN.md §20).
//
// Attributes *all* wall time of every attached thread to exactly one of a
// closed category set, under the conservation invariant
//
//     Σ categories == elapsed ± ε
//
// (ε = 0 by construction on the owner thread; the only residue comes from
// guard misuse, which is counted, never silently dropped). The discipline
// follows DTrace-style whole-system profiling — every nanosecond lands in
// exactly one bucket — and the per-query wait-state breakdowns of
// Umbra/HyPer-style profilers.
//
// A thread participates by attaching (`TimeLedger::AttachCurrentThread`)
// with a pseudo-worker id, a base category, and an optional label (the
// operator name for executor task threads). From then on RAII
// `ScopedTimeCategory` guards push/pop an explicit category stack: entering
// a scope settles the elapsed time into the *previous* category and charges
// subsequent time to the new one; leaving resumes the parent. Nested scopes
// therefore suspend their parent — no nanosecond is ever double-counted.
// `Reattribute` moves already-elapsed (and already-measured) nanoseconds
// from the current category into another one. `ChargeLockWait` is called by
// `pregelix::Mutex` on every *contended* acquisition and uses it to
// reclassify the blocked interval as `lock_wait`, and also feeds a
// per-lock-name table.
//
// The ledger's own internals use only std:: primitives (a raw std::mutex
// for the thread registry, atomics everywhere else) — never a
// pregelix::Mutex — because pregelix::Mutex::lock() calls back into the
// ledger; the same rule the lock-order detector follows.
//
// Threads that never attach pay one thread-local load per guard; a
// disabled ledger (`SetEnabled(false)`) refuses attaches, so every guard,
// reattribution, and lock-wait charge in the process becomes inert.

namespace pregelix {

class MetricsRegistry;

namespace ledger_internal {
struct ThreadRecord;
}  // namespace ledger_internal

/// The closed category set. tools/lint_ledger.py cross-checks the
/// kTimeCategoryNames literal below two-way against the DESIGN.md §20
/// category table; adding a category means updating both.
enum class TimeCategory : int {
  kCompute = 0,   ///< operator activations: the default for task threads
  kSort,          ///< in-memory run formation (quick/merge sort kernels)
  kMerge,         ///< loser-tree merge of sorted runs / streams
  kGroupBy,       ///< group-by combine/emit (sort- and hash-based)
  kShuffleWait,   ///< parked in a connector channel send/recv
  kBarrierWait,   ///< driver waiting on the superstep join barrier
  kIoRead,        ///< foreground file reads (pread / buffered read)
  kIoWrite,       ///< foreground file writes (append / pwrite / flush)
  kIoWait,        ///< no producer; kept because perfbench/perfbench.cc reads it
  kLockWait,      ///< contended pregelix::Mutex acquisitions
  kCheckpoint,    ///< driver-side checkpoint/recovery bookkeeping
  kServe,         ///< observability-server request handling
  kIdle,          ///< attached but parked with no work (pool workers)
};

inline constexpr int kNumTimeCategories = 13;

/// Category names, indexed by TimeCategory. This literal is the source of
/// truth tools/lint_ledger.py scans.
inline constexpr const char* kTimeCategoryNames[kNumTimeCategories] = {
    "compute",      "sort",    "merge",      "group_by", "shuffle_wait",
    "barrier_wait", "io_read", "io_write",   "io_wait",  "lock_wait",
    "checkpoint",   "serve",   "idle",
};

inline const char* TimeCategoryName(TimeCategory c) {
  return kTimeCategoryNames[static_cast<int>(c)];
}

/// A point-in-time copy of the whole ledger: folded (detached) thread time
/// plus the in-flight time of still-attached threads, all read with one
/// clock sample so the conservation invariant survives the copy.
struct TimeLedgerSnapshot {
  /// One (worker, label) aggregation cell.
  struct Cell {
    int worker = 0;
    std::string label;  ///< operator name; "" for unlabeled threads
    std::array<int64_t, kNumTimeCategories> ns{};
  };
  /// One contended-lock row, keyed by the static pregelix::Mutex name.
  struct LockWait {
    std::string name;
    int64_t ns = 0;
    int64_t count = 0;  ///< contended acquisitions
  };

  std::vector<Cell> cells;  ///< sorted by (worker, label)
  std::array<int64_t, kNumTimeCategories> category_ns{};  ///< Σ over cells
  std::vector<LockWait> locks;  ///< sorted by ns, descending
  int64_t elapsed_ns = 0;       ///< Σ attached thread-nanoseconds
  int64_t unattributed_ns = 0;  ///< |elapsed − Σ categories| at detach
  int64_t misuse_count = 0;     ///< guards destroyed off-thread / unbalanced

  int64_t attributed_ns() const;
  int64_t ns(TimeCategory c) const {
    return category_ns[static_cast<int>(c)];
  }
};

/// Process-wide time ledger. All mutation goes through the static
/// per-thread entry points; the instance API is snapshots and export.
class TimeLedger {
 public:
  /// Pseudo-worker ids for threads that are not simulated-cluster workers.
  static constexpr int kDriverWorker = -1;
  static constexpr int kServerWorker = -2;
  static constexpr int kOverlapWorker = -3;  ///< inert: perfbench reads it

  TimeLedger();
  ~TimeLedger();
  TimeLedger(const TimeLedger&) = delete;
  TimeLedger& operator=(const TimeLedger&) = delete;

  /// The instance every attach/guard in the process feeds.
  static TimeLedger& Global();

  // --- per-thread entry points (all inert on unattached threads) ----------

  /// Starts attributing this thread's time, base category `base`. Returns
  /// false (and stays inert) when already attached or the ledger is
  /// disabled. `label` names the cell (operator name for task threads).
  static bool AttachCurrentThread(int worker, TimeCategory base,
                                  std::string label = "");
  /// Settles the final interval, verifies conservation (exact on the owner
  /// thread; drift feeds `unattributed_ns`), folds the thread's
  /// accumulators into the ledger, and detaches.
  static void DetachCurrentThread();
  static bool CurrentThreadAttached();

  /// Moves `ns` already-elapsed nanoseconds from the current category into
  /// `to`. Used where a wait was *measured* by other means (a contended
  /// mutex's blocked interval) so two accountings of the same interval
  /// agree to the nanosecond.
  static void Reattribute(TimeCategory to, uint64_t ns);

  /// Called by pregelix::Mutex for a contended acquisition that blocked
  /// `ns` nanoseconds: reclassifies the interval as lock_wait and charges
  /// the per-lock table under `lock_name` (a static string).
  static void ChargeLockWait(const char* lock_name, uint64_t ns);

  /// Monotonic nanoseconds (steady clock), the ledger's one time base.
  static uint64_t NowNs();

  // --- instance API --------------------------------------------------------

  /// Refusing attaches while disabled makes every guard in the process
  /// inert; already-attached threads keep their accounting.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  TimeLedgerSnapshot TakeSnapshot() const;

  /// Registers/refreshes `pregelix.ledger.unattributed_ns` and
  /// `pregelix.ledger.guard_misuse` (DESIGN.md §10) in `registry`.
  void PublishMetrics(MetricsRegistry* registry) const;

  /// `/profilez` JSON: categories, per-worker and per-operator breakdowns,
  /// the lock table, and the conservation residue.
  void WriteJson(std::ostream& os) const;
  /// `/profilez?format=collapsed`: `worker;operator;category <ns>` lines,
  /// one per non-zero cell×category — flamegraph.pl's collapsed-stack
  /// input format.
  void WriteCollapsed(std::ostream& os) const;
  /// Prometheus text exposition appended after the registry's:
  /// `pregelix_time_seconds_total{category,worker}` and
  /// `pregelix_lock_wait_seconds_total{lock}` (top-k by wait time).
  void WritePrometheus(std::ostream& os) const;

  /// Drops all folded time, lock rows, and residue counters (tests).
  /// Attached threads stay attached; their in-flight time restarts from
  /// now.
  void Reset();

 private:
  using ThreadRecord = ledger_internal::ThreadRecord;
  friend class ScopedTimeCategory;

  void FoldLocked(ThreadRecord* rec, uint64_t now_ns);
  void AddLockWait(const char* name, uint64_t ns);
  void CountMisuse() { misuse_count_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> unattributed_ns_{0};
  std::atomic<int64_t> misuse_count_{0};

  /// Contended-lock table: fixed slots claimed by CAS on the name pointer
  /// (static Mutex names), merged by string value at snapshot time. Lock-
  /// free so a contended engine lock never serializes on the ledger.
  static constexpr int kLockSlots = 64;
  struct LockSlot {
    std::atomic<const char*> name{nullptr};
    std::atomic<int64_t> ns{0};
    std::atomic<int64_t> count{0};
  };
  mutable std::array<LockSlot, kLockSlots> lock_slots_;
  /// Overflow bucket when all slots are claimed by distinct names.
  LockSlot lock_overflow_;

  /// Raw std::mutex on purpose — see the header comment.
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadRecord>> live_;
  /// Folded (detached-thread) time, keyed by (worker, label).
  std::map<std::pair<int, std::string>,
           std::array<int64_t, kNumTimeCategories>>
      folded_;
  int64_t folded_elapsed_ns_ = 0;
};

/// RAII category scope: construction suspends the current category and
/// charges subsequent time to `category`; destruction resumes the parent.
/// Inert on unattached threads. Destroying a guard on a different thread
/// than the one that created it (or after that thread detached) is counted
/// misuse: the guard skips accounting rather than corrupting another
/// thread's stack, and the ledger's misuse counter records it.
class ScopedTimeCategory {
 public:
  explicit ScopedTimeCategory(TimeCategory category);
  ~ScopedTimeCategory();

  ScopedTimeCategory(const ScopedTimeCategory&) = delete;
  ScopedTimeCategory& operator=(const ScopedTimeCategory&) = delete;

 private:
  void* record_ = nullptr;  ///< the ThreadRecord this guard pushed onto
};

}  // namespace pregelix

#endif  // PREGELIX_COMMON_TIME_LEDGER_H_
