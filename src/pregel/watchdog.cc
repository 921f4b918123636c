#include "pregel/watchdog.h"

#include <algorithm>
#include <numeric>

#include "common/event_journal.h"
#include "common/logging.h"
#include "server/job_registry.h"

namespace pregelix {

namespace {
/// Trailing-mean window; small enough to track a phase change (e.g. the
/// adaptive join flipping to the sparse plan) within a few supersteps.
constexpr size_t kWindow = 8;
/// The shortest budget a superstep gets, whatever the trailing mean: a
/// millisecond superstep that a busy host delays a few scheduler slices is
/// not a stall, and under `auto` a flag is a reactive plan signal.
constexpr uint64_t kMinBudgetNs = 100'000'000;  // 100 ms
}  // namespace

StallWatchdog::StallWatchdog(double factor, MetricsRegistry* registry,
                             const std::string& job_name,
                             const std::string& job_id)
    : factor_(factor), job_name_(job_name), job_id_(job_id) {
  if (factor_ <= 0) return;  // disabled: no thread, Arm/Disarm are no-ops
  if (registry != nullptr) {
    const MetricLabels labels{{"job", job_name_}};
    stalls_ = registry->GetCounter("pregelix.pregel.stalls", labels);
    stalled_gauge_ =
        registry->GetGauge("pregelix.pregel.superstep_stalled", labels);
  }
  thread_ = std::thread([this]() { Loop(); });
}

StallWatchdog::~StallWatchdog() {
  if (!thread_.joinable()) return;
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
  // Terminal balance check: a stall journaled for a superstep that never
  // reached Disarm (the driver unwound on an error mid-superstep) would
  // otherwise leave /events replays with an unpaired "watchdog.stall".
  MutexLock lock(&mutex_);
  if (stalls_journaled_ > clears_journaled_ && !job_id_.empty()) {
    EventJournal::Global().Append(
        "watchdog.unresolved", job_id_, superstep_,
        {{"unresolved",
          std::to_string(stalls_journaled_ - clears_journaled_)}});
  }
}

uint64_t StallWatchdog::TrailingMeanNs() const {
  if (samples_.empty()) return 0;
  const uint64_t sum =
      std::accumulate(samples_.begin(), samples_.end(), uint64_t{0});
  return sum / samples_.size();
}

void StallWatchdog::Arm(int64_t superstep) {
  if (factor_ <= 0) return;
  MutexLock lock(&mutex_);
  superstep_ = superstep;
  flagged_ = false;
  if (samples_.size() < 3) {
    // Too few samples for a meaningful mean; watch from superstep 4 on.
    armed_ = false;
    return;
  }
  const uint64_t budget_ns = std::max(
      kMinBudgetNs,
      static_cast<uint64_t>(factor_ * static_cast<double>(TrailingMeanNs())));
  deadline_ =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(budget_ns);
  armed_ = true;
  cv_.NotifyAll();
}

void StallWatchdog::Disarm(uint64_t wall_ns) {
  if (factor_ <= 0) return;
  MutexLock lock(&mutex_);
  if (flagged_ && !job_id_.empty()) {
    // The flagged superstep finished after all: record the resolution so a
    // /events reader can pair every stall with its outcome.
    EventJournal::Global().Append(
        "watchdog.clear", job_id_, superstep_,
        {{"wall_ms", std::to_string(wall_ns / 1000000)}});
    ++clears_journaled_;
  }
  armed_ = false;
  samples_.push_back(wall_ns);
  if (samples_.size() > kWindow) {
    samples_.erase(samples_.begin());
  }
  cv_.NotifyAll();
}

int64_t StallWatchdog::stall_count() const {
  MutexLock lock(&mutex_);
  return stall_count_;
}

int64_t StallWatchdog::unresolved_count() const {
  MutexLock lock(&mutex_);
  return stalls_journaled_ - clears_journaled_;
}

void StallWatchdog::Loop() {
  MutexLock lock(&mutex_);
  while (!shutdown_) {
    if (!armed_ || flagged_) {
      cv_.Wait(&mutex_);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < deadline_) {
      cv_.WaitFor(&mutex_, deadline_ - now);
      continue;
    }
    // Deadline passed with the superstep still running: flag it now, while
    // it is stuck, not after the barrier.
    flagged_ = true;
    ++stall_count_;
    if (stalls_ != nullptr) stalls_->Increment();
    if (stalled_gauge_ != nullptr) stalled_gauge_->Set(superstep_);
    if (!job_id_.empty()) {
      // Journal (rank 64) and job registry (rank 62) both rank above this
      // lock (kWatchdog = 48), so publishing from inside the loop is safe.
      EventJournal::Global().Append(
          "watchdog.stall", job_id_, superstep_,
          {{"trailing_mean_ms", std::to_string(TrailingMeanNs() / 1000000)},
           {"factor", std::to_string(factor_)}});
      ++stalls_journaled_;
      server::JobStatusRegistry::Global().OnStall(job_id_, superstep_);
    }
    PLOG(Warn) << "stall watchdog [" << job_name_ << "]: superstep "
               << superstep_ << " exceeded " << factor_
               << "x the trailing-mean wall time ("
               << TrailingMeanNs() / 1000000 << " ms) and is still running";
  }
}

}  // namespace pregelix
