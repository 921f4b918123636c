#ifndef PREGELIX_DATAFLOW_CHANNEL_H_
#define PREGELIX_DATAFLOW_CHANNEL_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/run_file.h"

namespace pregelix {

/// Frame transport between operator clones, implementing the two
/// materialization policies of paper Section 4:
///
/// - kPipelined: a bounded in-memory queue; Put blocks when full
///   (backpressure). This is the "fully pipelined" policy.
/// - kSenderMaterialize: Put appends to a local run file on the sender's
///   disk (metered against the sender's worker); the receiver streams the
///   file after the senders close. This is the "sender-side materializing
///   pipelined" policy, which the m-to-n partitioning merging connector
///   needs to avoid the scheduling deadlocks of [Graefe 93] — a merging
///   receiver consumes its inputs selectively, so bounded queues can cycle.
///
/// Multi-producer, single-consumer. `abort` unblocks all waiters when a
/// sibling task fails.
class FrameChannel {
 public:
  enum class Policy { kPipelined, kSenderMaterialize };

  FrameChannel(size_t capacity_frames, Policy policy, std::string spill_path,
               WorkerMetrics* spill_metrics, std::atomic<bool>* abort,
               int num_senders);

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Sends one frame. Blocks under backpressure (pipelined). Returns Aborted
  /// if the job failed.
  Status Put(std::string frame);

  /// Each sender calls exactly once when done.
  Status CloseSender();

  /// Receives the next frame; false at end-of-stream or abort.
  bool Get(std::string* frame);

  /// Non-OK when the receive side failed (spill read error or injected
  /// "channel.recv" fault). Get returns false in that case — the executor
  /// promotes this status to the job error after joining the tasks, so a
  /// receive failure is never mistaken for a clean end-of-stream.
  Status fault_status() const;

 private:
  bool AllSendersDone() const REQUIRES(mutex_) { return senders_open_ == 0; }

  const size_t capacity_;
  const Policy policy_;
  const std::string spill_path_;
  WorkerMetrics* const spill_metrics_;
  std::atomic<bool>* const abort_;

  mutable Mutex mutex_{"channel", LockRank::kChannel};
  CondVar cv_;
  std::deque<std::string> queue_ GUARDED_BY(mutex_);
  int senders_open_ GUARDED_BY(mutex_);
  Status fault_status_ GUARDED_BY(mutex_);

  // Materializing mode state (single consumer streams the spill file, but
  // writer creation races between producers, so both ride the lock).
  std::unique_ptr<RunFileWriter> spill_writer_ GUARDED_BY(mutex_);
  std::unique_ptr<RunFileReader> spill_reader_ GUARDED_BY(mutex_);
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_CHANNEL_H_
