#ifndef PREGELIX_SERVER_JOB_REGISTRY_H_
#define PREGELIX_SERVER_JOB_REGISTRY_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/time_ledger.h"

// Live job status for the observability server (DESIGN.md "Live
// observability server").
//
// The Pregel runtime publishes into the registry at superstep boundaries —
// counters, the latest SuperstepStats brief, checkpoint/recovery
// transitions, watchdog stalls, and (when profiling is on) the cumulative
// plan profile pre-serialized with the deterministic `pregelix explain`
// JSON writer. Server handler threads read it concurrently; everything is
// behind one LockRank::kJobRegistry mutex, and publishers never hold any
// other engine lock while calling in (the driver publishes between jobs/
// supersteps; the watchdog holds only its own lower-ranked lock).
//
// The registry deliberately depends only on src/common: the runtime hands
// it plain fields, not runtime types, so src/pregel can link against it
// without a cycle.

namespace pregelix {
namespace server {

/// The per-superstep brief the runtime publishes at each barrier.
struct SuperstepBrief {
  int64_t superstep = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
  int64_t live_vertices = 0;
  int64_t messages = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t spill_count = 0;
  bool left_outer_join = false;
  /// Resolved physical plan ("join/groupby/connector"); empty for briefs
  /// published by pre-plan phases (load).
  std::string plan;
  /// Time-ledger delta across this superstep, per category (DESIGN.md §20).
  /// All-zero when the ledger is disabled. Signed: a reattribution whose
  /// wait straddles the superstep boundary can nudge a bucket negative.
  std::array<int64_t, kNumTimeCategories> ledger_ns{};
};

enum class JobState { kRunning, kFinished, kFailed };

const char* JobStateName(JobState state);

/// One tracked job. Copied out whole for inspection; the registry owns the
/// canonical instance.
struct JobStatus {
  std::string job_id;
  std::string name;
  JobState state = JobState::kRunning;
  int64_t started_wall_us = 0;
  uint64_t started_steady_ns = 0;
  int starts = 0;  ///< >1 after a resume or pipelined re-start

  int64_t superstep = 0;          ///< last completed superstep
  int64_t running_superstep = 0;  ///< in flight right now (0 = at a barrier)
  int64_t live_vertices = 0;
  int64_t messages = 0;
  uint64_t bytes_shuffled_total = 0;
  uint64_t spill_count_total = 0;
  int64_t checkpoint_superstep = -1;  ///< newest committed checkpoint
  int recoveries = 0;
  int64_t stalls = 0;
  int64_t last_stalled_superstep = -1;
  /// Latest resolved physical plan ("join/groupby/connector") and the
  /// cumulative count of plan-knob switches the chooser has made.
  std::string plan;
  int64_t plan_switches = 0;
  std::string error;  ///< non-empty iff state == kFailed

  std::deque<SuperstepBrief> recent;  ///< newest last, bounded window
  /// Cumulative plan profile as deterministic (timing-free) JSON; empty
  /// until the job's first superstep completes.
  std::string profile_json;
};

/// Thread-safe job table. Publish methods are cheap (one lock, field
/// writes); unknown job_ids are created on first touch so partial publish
/// orders cannot lose updates.
class JobStatusRegistry {
 public:
  /// Superstep briefs retained per job for the /jobs/<id> rollup.
  static constexpr size_t kRecentWindow = 64;
  /// Finished jobs retained before the oldest are evicted.
  static constexpr size_t kMaxJobs = 128;

  JobStatusRegistry() = default;
  JobStatusRegistry(const JobStatusRegistry&) = delete;
  JobStatusRegistry& operator=(const JobStatusRegistry&) = delete;

  void OnJobStart(const std::string& job_id, const std::string& name);
  void OnSuperstepStart(const std::string& job_id, int64_t superstep);
  void OnSuperstep(const std::string& job_id, const SuperstepBrief& brief,
                   std::string profile_json);
  void OnCheckpoint(const std::string& job_id, int64_t superstep);
  void OnRecovery(const std::string& job_id, int64_t checkpoint_superstep);
  void OnStall(const std::string& job_id, int64_t superstep);
  /// Published by the driver each superstep after plan resolution; `plan`
  /// is the "join/groupby/connector" string, `switches` how many knobs
  /// changed vs the previous superstep.
  void OnPlanDecision(const std::string& job_id, const std::string& plan,
                      int switches);
  void OnJobFinish(const std::string& job_id, bool ok,
                   const std::string& error);

  /// Copies one job's status; false when unknown.
  bool Get(const std::string& job_id, JobStatus* out) const;
  /// Job ids currently tracked, in deterministic (lexicographic) order.
  std::vector<std::string> JobIds() const;
  size_t size() const;
  int64_t running_jobs() const;

  /// `GET /jobs` body: one summary object per job.
  void WriteJobsJson(std::ostream& os) const;
  /// `GET /jobs/<id>` body: full status + recent supersteps + profile.
  /// Returns false (nothing written) for an unknown id.
  bool WriteJobJson(const std::string& job_id, std::ostream& os) const;

  /// Drops every record (tests).
  void Reset();

  /// Process-wide default instance (what the runtime publishes into).
  static JobStatusRegistry& Global();

 private:
  JobStatus* GetOrCreateLocked(const std::string& job_id) REQUIRES(mutex_);
  void EvictFinishedLocked() REQUIRES(mutex_);

  mutable Mutex mutex_{"job_registry", LockRank::kJobRegistry};
  std::map<std::string, JobStatus> jobs_ GUARDED_BY(mutex_);
};

}  // namespace server
}  // namespace pregelix

#endif  // PREGELIX_SERVER_JOB_REGISTRY_H_
