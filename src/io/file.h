#ifndef PREGELIX_IO_FILE_H_
#define PREGELIX_IO_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"

namespace pregelix {

/// Append-only file with a small user-space write buffer.
///
/// All byte traffic is reported to the owning worker's metrics (if any), so
/// the cost model sees every spill and materialization.
class WritableFile {
 public:
  static Status Open(const std::string& path, WorkerMetrics* metrics,
                     std::unique_ptr<WritableFile>* out);
  ~WritableFile();

  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  Status Append(const Slice& data);
  Status Flush();
  Status Close();

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  WritableFile(int fd, std::string path, WorkerMetrics* metrics);

  Status FlushBuffer();

  int fd_;
  std::string path_;
  WorkerMetrics* metrics_;
  std::string buffer_;
  uint64_t size_ = 0;
  bool closed_ = false;
};

/// Positional-read file (pread).
class RandomAccessFile {
 public:
  /// Opens for reads and in-place writes, creating a missing file (the
  /// buffer cache's page files). `read_only` opens an existing file for
  /// reads only: a missing file is an IoError and nothing is created.
  static Status Open(const std::string& path, WorkerMetrics* metrics,
                     std::unique_ptr<RandomAccessFile>* out,
                     bool read_only = false);
  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Reads exactly n bytes at offset into scratch; fails on short read.
  Status Read(uint64_t offset, size_t n, char* scratch) const;

  /// Writes exactly n bytes at offset (used by the buffer cache to write
  /// dirty pages back in place).
  Status Write(uint64_t offset, const Slice& data);

  uint64_t size() const { return size_; }
  void set_size(uint64_t s) { size_ = s; }
  const std::string& path() const { return path_; }

 private:
  RandomAccessFile(int fd, std::string path, uint64_t size,
                   WorkerMetrics* metrics);

  int fd_;
  std::string path_;
  mutable uint64_t size_;
  WorkerMetrics* metrics_;
};

/// Returns the size of a file, or NotFound.
Status GetFileSize(const std::string& path, uint64_t* size);

/// Deletes a file; missing file is not an error.
void DeleteFileIfExists(const std::string& path);

/// True if the path exists.
bool FileExists(const std::string& path);

/// Reads an entire (small) file into a string.
Status ReadFileToString(const std::string& path, std::string* out);

/// Atomically replaces `path` with `contents` (write temp + rename).
Status WriteStringToFileAtomic(const std::string& path, const Slice& contents);

/// Writes `contents` over the start of `path` (creating the file if it is
/// missing), then truncates the file to their length. One open, one write,
/// no rename: not atomic, so only for files no recovery reads. The write is
/// fault point "io.file.write"; a missing directory returns NotFound.
Status OverwriteFile(const std::string& path, const Slice& contents);

/// Renames `from` to `to` (atomic within a filesystem). Fault point
/// "io.file.rename".
Status RenameFile(const std::string& from, const std::string& to);

/// Streams the file through a 64-bit FNV-1a hash (with a final avalanche).
/// Used by checkpoint manifests to detect torn or corrupted snapshot files.
Status ChecksumFile(const std::string& path, uint64_t* checksum);

}  // namespace pregelix

#endif  // PREGELIX_IO_FILE_H_
