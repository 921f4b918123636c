#ifndef PREGELIX_COMMON_MUTEX_H_
#define PREGELIX_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

// Annotated locking primitives for the simulated cluster.
//
// Every mutex in the engine is a pregelix::Mutex constructed with a name and
// a LockRank. The name groups all instances of one structure (every
// FrameChannel's lock is "channel"); the rank encodes the global acquisition
// order. Two enforcement layers sit on top:
//
//  - Compile time: the thread_annotations.h attributes (GUARDED_BY /
//    REQUIRES / ACQUIRE / RELEASE) make clang's -Wthread-safety prove that
//    guarded fields are only touched with their lock held. Enabled by
//    cmake -DPREGELIX_THREAD_SAFETY_ANALYSIS=ON.
//
//  - Run time: when lock_order::SetEnabled(true) (the default in !NDEBUG
//    builds), every acquisition is checked against the held-lock stack of
//    the calling thread. Acquiring a lock whose rank is <= a held lock's
//    rank, or creating a cycle in the process-global name-level acquisition
//    graph, reports a violation (default: print both held-lock stacks and
//    abort). See DESIGN.md §12 for the rank table and how to read a report.
//
// Cost when the runtime detector is off: one relaxed atomic load plus a
// thread-local vector push/pop per acquisition.

namespace pregelix {

/// Global acquisition order: a thread may only acquire a ranked lock whose
/// rank is strictly greater than every ranked lock it already holds.
/// kUnranked locks skip the rank check but still feed the cycle graph.
/// Gaps are deliberate — new locks slot in without renumbering.
enum class LockRank : int {
  kUnranked = 0,
  kCluster = 10,         // SimulatedCluster worker table
  kTaskPool = 15,        // SimulatedCluster task-thread pool queue
  kChannel = 20,         // FrameChannel queue + spill state
  kBufferCache = 30,     // BufferCache page table / LRU / files
  kExecutorStatus = 40,  // RunJob first-error slot
  kPregelGlobalState = 45,  // JobRuntimeContext pending GS
  kWatchdog = 48,        // StallWatchdog arm/disarm state
  kTraceRegistry = 50,   // Tracer thread-buffer registry
  kTraceBuffer = 55,     // one Tracer thread buffer
  kFaultInjector = 60,   // FaultInjector point table
  kJobRegistry = 62,     // JobStatusRegistry job table
  kEventJournal = 64,    // EventJournal ring + spill stream
  kServer = 66,          // ObservabilityServer connection queue
  kMetricsRegistry = 70, // MetricsRegistry instrument table
  kLogging = 90,         // log serialization; loggable under any lock
};

/// Annotated std::mutex wrapper carrying a static name and rank.
/// Satisfies BasicLockable so std::condition_variable_any (via CondVar)
/// waits through the instrumented lock/unlock, keeping the runtime
/// detector's held-lock stack accurate across waits.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "unnamed",
                 LockRank rank = LockRank::kUnranked)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE();
  void unlock() RELEASE();
  bool try_lock() TRY_ACQUIRE(true);

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const char* const name_;
  const LockRank rank_;
};

/// RAII lock holder (the only way the engine takes a Mutex).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to pregelix::Mutex. Waits release and reacquire
/// through the instrumented Mutex, so rank checks and the held-lock stack
/// stay correct across the wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) { cv_.wait(*mu); }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex* mu,
                         const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    return cv_.wait_for(*mu, d);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

namespace lock_order {

/// One detected violation, handed to the installed handler.
struct Violation {
  enum class Kind { kRankInversion, kCycle, kRecursive };
  Kind kind;
  /// Human-readable report: the offending acquisition, the acquiring
  /// thread's held-lock stack, and for cycles the full edge path with the
  /// held-lock stack recorded when each edge was first observed.
  std::string report;
};

/// Violation callback. The default handler prints the report to stderr and
/// aborts; a test handler that returns lets the acquisition proceed.
using Handler = void (*)(const Violation&);

/// Installs a handler; returns the previous one. nullptr restores the
/// default print-and-abort handler.
Handler SetHandler(Handler handler);

/// Turns runtime checking on/off. Defaults to on in !NDEBUG builds.
void SetEnabled(bool enabled);
bool Enabled();

/// Drops all recorded acquisition edges (not the held-lock stacks). Tests
/// call this between scenarios so edges from one scenario cannot complete
/// a cycle in the next.
void ResetGraphForTest();

/// Names of the locks the calling thread currently holds, outermost first.
std::vector<std::string> HeldLocksForTest();

}  // namespace lock_order

}  // namespace pregelix

#endif  // PREGELIX_COMMON_MUTEX_H_
