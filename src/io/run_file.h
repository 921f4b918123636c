#ifndef PREGELIX_IO_RUN_FILE_H_
#define PREGELIX_IO_RUN_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/file.h"

namespace pregelix {

/// Sequential file of length-prefixed blocks (dataflow frames).
///
/// Run files back everything that is "temporary local data" in the paper:
/// sort runs, the per-partition Msg relation, and sender-side materialized
/// connector channels. Blocks are typically whole frames. Every append and
/// read runs synchronously on the calling thread.
class RunFileWriter {
 public:
  static Status Open(const std::string& path, WorkerMetrics* metrics,
                     std::unique_ptr<RunFileWriter>* out);

  Status AppendBlock(const Slice& block);
  Status Finish();

  uint64_t num_blocks() const { return num_blocks_; }
  uint64_t bytes_written() const { return bytes_appended_; }
  const std::string& path() const { return file_->path(); }

 private:
  explicit RunFileWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<WritableFile> file_;
  uint64_t num_blocks_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// Sequential reader over a run file.
class RunFileReader {
 public:
  static Status Open(const std::string& path, WorkerMetrics* metrics,
                     std::unique_ptr<RunFileReader>* out);

  /// Reads the next block into *out (resized). Returns NotFound at EOF.
  Status NextBlock(std::string* out);

  /// Restarts from the beginning.
  void Reset() { offset_ = 0; }

  bool AtEnd() const { return offset_ >= file_->size(); }

 private:
  explicit RunFileReader(std::unique_ptr<RandomAccessFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<RandomAccessFile> file_;
  uint64_t offset_ = 0;
};

}  // namespace pregelix

#endif  // PREGELIX_IO_RUN_FILE_H_
