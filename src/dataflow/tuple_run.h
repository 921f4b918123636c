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

/// Tuple-granular writer over a frame run file: the dataflow layer's one run
/// writer. It writes the materialized relations of a Pregelix job (the
/// per-partition Msg runs, checkpoints, pending-update buffers) and the
/// spilled runs of the sort kernels. It counts the tuples, frames and bytes
/// it writes, so an operator can report a relation it writes as its output
/// and a sort kernel its spill volume.
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

/// Tuple-granular cursor over a stream of frames: the one accessor, index
/// and refill loop behind every run reader and every input of a k-way merge
/// (LoserTree). The per-tuple calls are inline; only the per-frame refill,
/// NextFrame, is virtual. It counts the tuples, frames and bytes of the
/// frames it loads, so an operator can report a relation it reads as its
/// input.
class TupleCursor {
 public:
  explicit TupleCursor(int field_count) : accessor_(field_count) {}
  TupleCursor(const TupleCursor&) = delete;
  TupleCursor& operator=(const TupleCursor&) = delete;
  virtual ~TupleCursor() = default;

  bool Valid() const { return valid_; }

  Status Next() {
    ++index_;
    if (index_ >= accessor_.tuple_count()) return Advance();
    return Status::OK();
  }

  Slice field(int f) const { return accessor_.field(index_, f); }
  /// The current tuple's encoded bytes, for FrameTupleAppender::AppendRaw.
  Slice tuple_bytes() const { return accessor_.tuple_bytes(index_); }
  int field_count() const { return accessor_.field_count(); }

  uint64_t count() const { return count_; }
  uint64_t frames() const { return frames_; }
  uint64_t bytes() const { return bytes_; }

 protected:
  /// Loads the stream's next frame into *frame; NotFound at its end.
  virtual Status NextFrame(std::string* frame) = 0;

  /// Positions at the first tuple of the next non-empty frame, or makes the
  /// cursor invalid at the end of the stream.
  Status Advance() {
    for (;;) {
      Status s = NextFrame(&frame_);
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

 private:
  std::string frame_;
  FrameTupleAccessor accessor_;
  int index_ = 0;
  bool valid_ = false;
  uint64_t count_ = 0;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
};

/// Cursor over a frame run file: the dataflow layer's one run reader.
class TupleRunReader final : public TupleCursor {
 public:
  TupleRunReader(std::string path, int field_count, WorkerMetrics* metrics)
      : TupleCursor(field_count), path_(std::move(path)), metrics_(metrics) {}

  /// Opens the run and positions at its first tuple. An empty path is the
  /// empty relation (no Msg before superstep 1). A run that cannot be
  /// opened, a missing one included, is an error and never an empty
  /// relation.
  Status Init() {
    if (path_.empty()) return Status::OK();
    PREGELIX_RETURN_NOT_OK(RunFileReader::Open(path_, metrics_, &reader_));
    return Advance();
  }

 private:
  Status NextFrame(std::string* frame) override {
    return reader_->NextBlock(frame);
  }

  std::string path_;
  WorkerMetrics* metrics_;
  std::unique_ptr<RunFileReader> reader_;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_TUPLE_RUN_H_
