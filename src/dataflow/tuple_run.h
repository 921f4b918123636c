#ifndef PREGELIX_DATAFLOW_TUPLE_RUN_H_
#define PREGELIX_DATAFLOW_TUPLE_RUN_H_

#include <memory>
#include <span>
#include <string>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "dataflow/frame.h"
#include "io/run_file.h"

namespace pregelix {

/// Tuple-granular writer over a frame run file. Used for the materialized
/// relations of a Pregelix job (the per-partition Msg runs, checkpoints,
/// pending-update buffers). It counts the tuples, frames and bytes it
/// writes, so an operator can report a relation it writes as its output.
class TupleRunWriter {
 public:
  TupleRunWriter(std::string path, size_t frame_size, int field_count,
                 WorkerMetrics* metrics)
      : path_(std::move(path)),
        metrics_(metrics),
        appender_(frame_size, field_count) {}

  Status Append(std::span<const Slice> fields) {
    if (file_ == nullptr) {
      PREGELIX_RETURN_NOT_OK(RunFileWriter::Open(path_, metrics_, &file_));
    }
    if (!appender_.Append(fields)) {
      PREGELIX_RETURN_NOT_OK(WriteFrame());
      if (!appender_.Append(fields)) {
        return Status::Internal("tuple cannot fit in an empty frame");
      }
    }
    ++count_;
    return Status::OK();
  }

  Status Finish() {
    if (file_ == nullptr) {
      // Create an empty run so readers see a valid (empty) relation.
      PREGELIX_RETURN_NOT_OK(RunFileWriter::Open(path_, metrics_, &file_));
    }
    if (!appender_.empty()) PREGELIX_RETURN_NOT_OK(WriteFrame());
    return file_->Finish();
  }

  uint64_t count() const { return count_; }
  uint64_t frames() const { return frames_; }
  uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  Status WriteFrame() {
    const std::string& frame = appender_.FinalizeView();
    ++frames_;
    bytes_ += frame.size();
    PREGELIX_RETURN_NOT_OK(file_->AppendBlock(frame));
    appender_.Reset();
    return Status::OK();
  }

  std::string path_;
  WorkerMetrics* metrics_;
  FrameTupleAppender appender_;
  std::unique_ptr<RunFileWriter> file_;
  uint64_t count_ = 0;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
};

/// Tuple-granular cursor over a frame run file. It counts the tuples,
/// frames and bytes of the frames it loads, so an operator can report a
/// relation it reads as its input.
class TupleRunReader {
 public:
  TupleRunReader(std::string path, int field_count, WorkerMetrics* metrics)
      : path_(std::move(path)), accessor_(field_count), metrics_(metrics) {}

  /// Opens and positions at the first tuple. A missing file yields an empty
  /// (immediately invalid) cursor.
  Status Init() {
    Status s = RunFileReader::Open(path_, metrics_, &reader_);
    if (!s.ok()) {
      valid_ = false;
      return Status::OK();
    }
    return Advance();
  }

  bool Valid() const { return valid_; }

  Status Next() {
    ++index_;
    if (index_ >= accessor_.tuple_count()) return Advance();
    return Status::OK();
  }

  Slice field(int f) const { return accessor_.field(index_, f); }

  uint64_t count() const { return count_; }
  uint64_t frames() const { return frames_; }
  uint64_t bytes() const { return bytes_; }

 private:
  Status Advance() {
    for (;;) {
      Status s = reader_->NextBlock(&frame_);
      if (s.IsNotFound()) {
        valid_ = false;
        return Status::OK();
      }
      PREGELIX_RETURN_NOT_OK(s);
      accessor_.Reset(Slice(frame_));
      ++frames_;
      bytes_ += frame_.size();
      count_ += static_cast<uint64_t>(accessor_.tuple_count());
      if (accessor_.tuple_count() > 0) {
        index_ = 0;
        valid_ = true;
        return Status::OK();
      }
    }
  }

  std::string path_;
  std::unique_ptr<RunFileReader> reader_;
  std::string frame_;
  FrameTupleAccessor accessor_;
  int index_ = 0;
  bool valid_ = false;
  WorkerMetrics* metrics_;
  uint64_t count_ = 0;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_TUPLE_RUN_H_
