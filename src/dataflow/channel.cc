#include "dataflow/channel.h"

#include <chrono>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/time_ledger.h"

namespace pregelix {

namespace {
constexpr auto kAbortPollInterval = std::chrono::milliseconds(20);
}  // namespace

FrameChannel::FrameChannel(size_t capacity_frames, Policy policy,
                           std::string spill_path,
                           WorkerMetrics* spill_metrics,
                           std::atomic<bool>* abort, int num_senders)
    : capacity_(capacity_frames == 0 ? 1 : capacity_frames),
      policy_(policy),
      spill_path_(std::move(spill_path)),
      spill_metrics_(spill_metrics),
      abort_(abort),
      senders_open_(num_senders) {}

Status FrameChannel::Put(std::string frame) {
  MutexLock lock(&mutex_);
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("channel.send"));
  if (policy_ == Policy::kSenderMaterialize) {
    if (spill_writer_ == nullptr) {
      PREGELIX_RETURN_NOT_OK(
          RunFileWriter::Open(spill_path_, spill_metrics_, &spill_writer_));
    }
    return spill_writer_->AppendBlock(frame);
  }
  {
    // Backpressure park: receiver is behind. Time ledger: shuffle_wait.
    ScopedTimeCategory shuffle_wait(TimeCategory::kShuffleWait);
    while (queue_.size() >= capacity_) {
      if (abort_ != nullptr && abort_->load()) {
        return Status::Aborted("job aborted");
      }
      cv_.WaitFor(&mutex_, kAbortPollInterval);
    }
  }
  queue_.push_back(std::move(frame));
  cv_.NotifyAll();
  return Status::OK();
}

Status FrameChannel::CloseSender() {
  MutexLock lock(&mutex_);
  PREGELIX_CHECK(senders_open_ > 0);
  --senders_open_;
  if (senders_open_ == 0 && policy_ == Policy::kSenderMaterialize &&
      spill_writer_ != nullptr) {
    PREGELIX_RETURN_NOT_OK(spill_writer_->Finish());
  }
  cv_.NotifyAll();
  return Status::OK();
}

bool FrameChannel::Get(std::string* frame) {
  MutexLock lock(&mutex_);
  {
    Status injected = fault::MaybeFail("channel.recv");
    if (!injected.ok()) {
      // Get's bool signature cannot carry a Status, so a receive fault is
      // parked on the channel and the job is aborted; RunJob picks the
      // status up after joining so the failure surfaces at the driver.
      fault_status_ = std::move(injected);
      if (abort_ != nullptr) abort_->store(true);
      cv_.NotifyAll();
      return false;
    }
  }
  if (policy_ == Policy::kSenderMaterialize) {
    {
      // Park until every sender closed. Time ledger: shuffle_wait.
      ScopedTimeCategory shuffle_wait(TimeCategory::kShuffleWait);
      while (!AllSendersDone()) {
        if (abort_ != nullptr && abort_->load()) return false;
        cv_.WaitFor(&mutex_, kAbortPollInterval);
      }
    }
    if (spill_writer_ == nullptr) return false;  // nothing was sent
    if (spill_reader_ == nullptr) {
      Status s =
          RunFileReader::Open(spill_path_, spill_metrics_, &spill_reader_);
      if (!s.ok()) {
        PLOG(Error) << "channel spill open failed: " << s.ToString();
        fault_status_ = std::move(s);
        if (abort_ != nullptr) abort_->store(true);
        return false;
      }
    }
    Status s = spill_reader_->NextBlock(frame);
    if (s.IsNotFound()) {
      // Stream exhausted: the spill file is single-use scratch.
      spill_reader_.reset();
      spill_writer_.reset();
      DeleteFileIfExists(spill_path_);
      return false;
    }
    if (!s.ok()) {
      fault_status_ = std::move(s);
      if (abort_ != nullptr) abort_->store(true);
    }
    return fault_status_.ok();
  }
  // Receive park (pipelined): the pop itself is trivial, so the whole loop
  // counts as shuffle_wait — virtually all of it is the cv_ wait.
  ScopedTimeCategory shuffle_wait(TimeCategory::kShuffleWait);
  for (;;) {
    if (!queue_.empty()) {
      *frame = std::move(queue_.front());
      queue_.pop_front();
      cv_.NotifyAll();
      return true;
    }
    if (AllSendersDone()) return false;
    if (abort_ != nullptr && abort_->load()) return false;
    cv_.WaitFor(&mutex_, kAbortPollInterval);
  }
}

Status FrameChannel::fault_status() const {
  MutexLock lock(&mutex_);
  return fault_status_;
}

}  // namespace pregelix
