#include "server/job_registry.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"

namespace pregelix {
namespace server {

namespace {

int64_t NowWallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

uint64_t NowSteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared summary fields between /jobs and /jobs/<id>.
void WriteSummaryFields(std::ostream& os, const JobStatus& j) {
  os << "\"job\":\"";
  AppendJsonEscaped(os, j.job_id);
  os << "\",\"name\":\"";
  AppendJsonEscaped(os, j.name);
  os << "\",\"state\":\"" << JobStateName(j.state) << "\""
     << ",\"started_wall_us\":" << j.started_wall_us
     << ",\"uptime_seconds\":";
  const double uptime =
      j.started_steady_ns == 0
          ? 0.0
          : static_cast<double>(NowSteadyNanos() - j.started_steady_ns) / 1e9;
  os << uptime << ",\"superstep\":" << j.superstep
     << ",\"running_superstep\":" << j.running_superstep
     << ",\"live_vertices\":" << j.live_vertices
     << ",\"messages\":" << j.messages
     << ",\"bytes_shuffled\":" << j.bytes_shuffled_total
     << ",\"spills\":" << j.spill_count_total
     << ",\"checkpoint_superstep\":" << j.checkpoint_superstep
     << ",\"recoveries\":" << j.recoveries << ",\"stalls\":" << j.stalls
     << ",\"last_stalled_superstep\":" << j.last_stalled_superstep;
  if (!j.plan.empty()) {
    os << ",\"plan\":\"";
    AppendJsonEscaped(os, j.plan);
    os << "\",\"plan_switches\":" << j.plan_switches;
  }
  if (!j.error.empty()) {
    os << ",\"error\":\"";
    AppendJsonEscaped(os, j.error);
    os << "\"";
  }
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kRunning:
      return "running";
    case JobState::kFinished:
      return "finished";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

JobStatus* JobStatusRegistry::GetOrCreateLocked(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    EvictFinishedLocked();
    it = jobs_.emplace(job_id, JobStatus{}).first;
    it->second.job_id = job_id;
    it->second.started_wall_us = NowWallMicros();
    it->second.started_steady_ns = NowSteadyNanos();
  }
  return &it->second;
}

void JobStatusRegistry::EvictFinishedLocked() {
  // Bound the table: drop the lexicographically-first non-running jobs.
  // Running jobs are never evicted (the publisher still holds their id).
  while (jobs_.size() >= kMaxJobs) {
    auto victim = jobs_.end();
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->second.state != JobState::kRunning) {
        victim = it;
        break;
      }
    }
    if (victim == jobs_.end()) return;  // every slot is a live job
    jobs_.erase(victim);
  }
}

void JobStatusRegistry::OnJobStart(const std::string& job_id,
                                   const std::string& name) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  j->name = name;
  j->state = JobState::kRunning;
  j->error.clear();
  ++j->starts;
  if (j->starts > 1) {
    // Restart of a known id (recovery rerun): keep cumulative counters but
    // refresh the start clock so uptime reflects the current attempt.
    j->started_wall_us = NowWallMicros();
    j->started_steady_ns = NowSteadyNanos();
  }
}

void JobStatusRegistry::OnSuperstepStart(const std::string& job_id,
                                         int64_t superstep) {
  MutexLock lock(&mutex_);
  GetOrCreateLocked(job_id)->running_superstep = superstep;
}

void JobStatusRegistry::OnSuperstep(const std::string& job_id,
                                    const SuperstepBrief& brief,
                                    std::string profile_json) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  j->superstep = std::max(j->superstep, brief.superstep);
  j->running_superstep = 0;
  j->live_vertices = brief.live_vertices;
  j->messages = brief.messages;
  j->bytes_shuffled_total += brief.bytes_shuffled;
  j->spill_count_total += brief.spill_count;
  j->recent.push_back(brief);
  while (j->recent.size() > kRecentWindow) j->recent.pop_front();
  if (!profile_json.empty()) j->profile_json = std::move(profile_json);
}

void JobStatusRegistry::OnCheckpoint(const std::string& job_id,
                                     int64_t superstep) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  j->checkpoint_superstep = std::max(j->checkpoint_superstep, superstep);
}

void JobStatusRegistry::OnRecovery(const std::string& job_id,
                                   int64_t checkpoint_superstep) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  ++j->recoveries;
  j->checkpoint_superstep =
      std::max(j->checkpoint_superstep, checkpoint_superstep);
  j->state = JobState::kRunning;
  j->error.clear();
}

void JobStatusRegistry::OnStall(const std::string& job_id, int64_t superstep) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  ++j->stalls;
  j->last_stalled_superstep = std::max(j->last_stalled_superstep, superstep);
}

void JobStatusRegistry::OnPlanDecision(const std::string& job_id,
                                       const std::string& plan,
                                       int switches) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  j->plan = plan;
  j->plan_switches += switches;
}

void JobStatusRegistry::OnJobFinish(const std::string& job_id, bool ok,
                                    const std::string& error) {
  MutexLock lock(&mutex_);
  JobStatus* j = GetOrCreateLocked(job_id);
  j->state = ok ? JobState::kFinished : JobState::kFailed;
  j->running_superstep = 0;
  j->error = ok ? std::string() : error;
}

bool JobStatusRegistry::Get(const std::string& job_id, JobStatus* out) const {
  MutexLock lock(&mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<std::string> JobStatusRegistry::JobIds() const {
  std::vector<std::string> ids;
  MutexLock lock(&mutex_);
  ids.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) ids.push_back(id);
  return ids;
}

size_t JobStatusRegistry::size() const {
  MutexLock lock(&mutex_);
  return jobs_.size();
}

int64_t JobStatusRegistry::running_jobs() const {
  MutexLock lock(&mutex_);
  int64_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kRunning) ++n;
  }
  return n;
}

void JobStatusRegistry::WriteJobsJson(std::ostream& os) const {
  MutexLock lock(&mutex_);
  os << "{\"jobs\":[";
  bool first = true;
  for (const auto& [id, job] : jobs_) {
    if (!first) os << ",";
    first = false;
    os << "{";
    WriteSummaryFields(os, job);
    os << "}";
  }
  os << "]}";
}

bool JobStatusRegistry::WriteJobJson(const std::string& job_id,
                                     std::ostream& os) const {
  MutexLock lock(&mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  const JobStatus& j = it->second;
  os << "{";
  WriteSummaryFields(os, j);
  os << ",\"recent_supersteps\":[";
  bool first = true;
  for (const SuperstepBrief& b : j.recent) {
    if (!first) os << ",";
    first = false;
    os << "{\"superstep\":" << b.superstep
       << ",\"wall_seconds\":" << b.wall_seconds
       << ",\"sim_seconds\":" << b.sim_seconds
       << ",\"live_vertices\":" << b.live_vertices
       << ",\"messages\":" << b.messages
       << ",\"bytes_shuffled\":" << b.bytes_shuffled
       << ",\"spills\":" << b.spill_count
       << ",\"left_outer_join\":" << (b.left_outer_join ? "true" : "false");
    if (!b.plan.empty()) {
      os << ",\"plan\":\"";
      AppendJsonEscaped(os, b.plan);
      os << "\"";
    }
    // Per-superstep time-ledger delta (DESIGN.md §20), non-zero categories
    // only; absent entirely when the ledger was off for this superstep.
    bool any_ledger = false;
    for (int64_t ns : b.ledger_ns) any_ledger = any_ledger || ns != 0;
    if (any_ledger) {
      os << ",\"ledger_ns\":{";
      bool first_cat = true;
      for (int c = 0; c < kNumTimeCategories; ++c) {
        if (b.ledger_ns[c] == 0) continue;
        if (!first_cat) os << ",";
        first_cat = false;
        os << "\"" << kTimeCategoryNames[c] << "\":" << b.ledger_ns[c];
      }
      os << "}";
    }
    os << "}";
  }
  os << "]";
  if (!j.profile_json.empty()) {
    os << ",\"profile\":" << j.profile_json;
  }
  os << "}";
  return true;
}

void JobStatusRegistry::Reset() {
  MutexLock lock(&mutex_);
  jobs_.clear();
}

JobStatusRegistry& JobStatusRegistry::Global() {
  static JobStatusRegistry* registry = new JobStatusRegistry();
  return *registry;
}

}  // namespace server
}  // namespace pregelix
