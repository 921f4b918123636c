#ifndef PREGELIX_PREGEL_WATCHDOG_H_
#define PREGELIX_PREGEL_WATCHDOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pregelix {

/// Flags supersteps that run suspiciously long: a background thread wakes
/// when an armed superstep exceeds `factor` times the trailing-mean wall
/// time of recent supersteps, and at least 100 ms, and raises a warning
/// log, the `pregelix.pregel.stalls` counter, and the
/// `pregelix.pregel.superstep_stalled` gauge (latest stalled superstep,
/// sticky until the next stall). The flag fires while the superstep is
/// still running — that is the point: a wedged exchange or a pathological
/// skew shows up in the log stream without waiting for the barrier.
///
/// Arming is a no-op until three samples exist (the mean is meaningless
/// earlier) or when `factor <= 0` (disabled). One instance serves one
/// driver loop; Arm/Disarm bracket each superstep.
///
/// Every journaled "watchdog.stall" is guaranteed a terminal partner: the
/// flagged superstep's Disarm emits "watchdog.clear", and a stall whose
/// superstep never disarms (the driver unwound on an error between Arm and
/// Disarm) is closed out by the destructor with "watchdog.unresolved" — an
/// /events replay can always pair every stall with its outcome.
class StallWatchdog {
 public:
  /// `registry` may be null (no metrics surfaced, log only). A non-empty
  /// `job_id` additionally publishes stalls to the process-wide
  /// JobStatusRegistry and EventJournal ("watchdog.stall" /
  /// "watchdog.clear") for the observability server.
  StallWatchdog(double factor, MetricsRegistry* registry,
                const std::string& job_name, const std::string& job_id = "");
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Call immediately before running superstep `superstep`.
  void Arm(int64_t superstep);
  /// Call after the superstep barrier with its measured wall time; records
  /// the sample into the trailing window.
  void Disarm(uint64_t wall_ns);

  /// Supersteps flagged so far (test hook).
  int64_t stall_count() const;
  /// Journaled stalls that have not (yet) been paired with a clear; the
  /// destructor journals "watchdog.unresolved" when this is non-zero.
  int64_t unresolved_count() const;

 private:
  void Loop();
  uint64_t TrailingMeanNs() const REQUIRES(mutex_);

  const double factor_;
  const std::string job_name_;
  const std::string job_id_;
  Counter* stalls_ = nullptr;
  Gauge* stalled_gauge_ = nullptr;

  mutable Mutex mutex_{"stall_watchdog", LockRank::kWatchdog};
  CondVar cv_;
  bool shutdown_ GUARDED_BY(mutex_) = false;
  bool armed_ GUARDED_BY(mutex_) = false;
  bool flagged_ GUARDED_BY(mutex_) = false;
  int64_t superstep_ GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point deadline_ GUARDED_BY(mutex_);
  std::vector<uint64_t> samples_ GUARDED_BY(mutex_);  ///< trailing window
  int64_t stall_count_ GUARDED_BY(mutex_) = 0;
  /// Journal balance: stalls emitted vs clears emitted. Unequal at
  /// destruction means a flagged superstep never disarmed.
  int64_t stalls_journaled_ GUARDED_BY(mutex_) = 0;
  int64_t clears_journaled_ GUARDED_BY(mutex_) = 0;
  std::thread thread_;
};

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_WATCHDOG_H_
