#include "io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/time_ledger.h"

namespace pregelix {

namespace {
constexpr size_t kWriteBufferSize = 64 * 1024;

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

Status WriteFully(int fd, const char* data, size_t n,
                  const std::string& path) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("write " + path));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}
}  // namespace

// ---------------------------------------------------------------------------
// WritableFile

WritableFile::WritableFile(int fd, std::string path, WorkerMetrics* metrics)
    : fd_(fd), path_(std::move(path)), metrics_(metrics) {
  buffer_.reserve(kWriteBufferSize);
}

Status WritableFile::Open(const std::string& path, WorkerMetrics* metrics,
                          std::unique_ptr<WritableFile>* out) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open " + path));
  }
  out->reset(new WritableFile(fd, path, metrics));
  return Status::OK();
}

WritableFile::~WritableFile() {
  if (!closed_) {
    PREGELIX_IGNORE_STATUS(Close());  // best effort in a destructor
  }
}

Status WritableFile::Append(const Slice& data) {
  size_ += data.size();
  if (buffer_.size() + data.size() < kWriteBufferSize) {
    buffer_.append(data.data(), data.size());
    return Status::OK();
  }
  PREGELIX_RETURN_NOT_OK(FlushBuffer());
  if (data.size() >= kWriteBufferSize) {
    // Large write: go straight to the kernel.
    ScopedTimeCategory io_write(TimeCategory::kIoWrite);
    size_t allowed = data.size();
    Status injected = fault::MaybeFailWrite("io.file.write", &allowed);
    PREGELIX_RETURN_NOT_OK(WriteFully(fd_, data.data(), allowed, path_));
    PREGELIX_RETURN_NOT_OK(injected);
    if (metrics_ != nullptr) metrics_->AddDiskWrite(data.size());
    return Status::OK();
  }
  buffer_.append(data.data(), data.size());
  return Status::OK();
}

Status WritableFile::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  ScopedTimeCategory io_write(TimeCategory::kIoWrite);
  size_t allowed = buffer_.size();
  Status injected = fault::MaybeFailWrite("io.file.write", &allowed);
  PREGELIX_RETURN_NOT_OK(WriteFully(fd_, buffer_.data(), allowed, path_));
  if (!injected.ok()) {
    // A torn write leaves the prefix on disk; the tail is lost.
    buffer_.clear();
    return injected;
  }
  if (metrics_ != nullptr) metrics_->AddDiskWrite(buffer_.size());
  buffer_.clear();
  return Status::OK();
}

Status WritableFile::Flush() { return FlushBuffer(); }

Status WritableFile::Close() {
  if (closed_) return Status::OK();
  Status s = FlushBuffer();
  if (::close(fd_) != 0 && s.ok()) {
    s = Status::IoError(ErrnoMessage("close " + path_));
  }
  closed_ = true;
  return s;
}

// ---------------------------------------------------------------------------
// RandomAccessFile

RandomAccessFile::RandomAccessFile(int fd, std::string path, uint64_t size,
                                   WorkerMetrics* metrics)
    : fd_(fd), path_(std::move(path)), size_(size), metrics_(metrics) {}

Status RandomAccessFile::Open(const std::string& path, WorkerMetrics* metrics,
                              std::unique_ptr<RandomAccessFile>* out,
                              bool read_only) {
  int fd = ::open(path.c_str(), read_only ? O_RDONLY : O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open " + path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("fstat " + path));
  }
  out->reset(new RandomAccessFile(fd, path, static_cast<uint64_t>(st.st_size),
                                  metrics));
  return Status::OK();
}

RandomAccessFile::~RandomAccessFile() { ::close(fd_); }

Status RandomAccessFile::Read(uint64_t offset, size_t n, char* scratch) const {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("io.file.read"));
  ScopedTimeCategory io_read(TimeCategory::kIoRead);
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd_, scratch + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("pread " + path_));
    }
    if (r == 0) {
      return Status::IoError("short read at " + std::to_string(offset) +
                             " in " + path_);
    }
    done += static_cast<size_t>(r);
  }
  if (metrics_ != nullptr) metrics_->AddDiskRead(n);
  return Status::OK();
}

Status RandomAccessFile::Write(uint64_t offset, const Slice& data) {
  ScopedTimeCategory io_write(TimeCategory::kIoWrite);
  size_t allowed = data.size();
  Status injected = fault::MaybeFailWrite("io.file.pwrite", &allowed);
  size_t done = 0;
  while (done < allowed) {
    ssize_t r = ::pwrite(fd_, data.data() + done, allowed - done,
                         static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("pwrite " + path_));
    }
    done += static_cast<size_t>(r);
  }
  PREGELIX_RETURN_NOT_OK(injected);
  if (offset + data.size() > size_) size_ = offset + data.size();
  if (metrics_ != nullptr) metrics_->AddDiskWrite(data.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Helpers

Status GetFileSize(const std::string& path, uint64_t* size) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("stat " + path);
  }
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

void DeleteFileIfExists(const std::string& path) { ::unlink(path.c_str()); }

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status ReadFileToString(const std::string& path, std::string* out) {
  uint64_t size = 0;
  PREGELIX_RETURN_NOT_OK(GetFileSize(path, &size));
  std::unique_ptr<RandomAccessFile> file;
  PREGELIX_RETURN_NOT_OK(RandomAccessFile::Open(path, nullptr, &file));
  out->resize(size);
  if (size == 0) return Status::OK();
  return file->Read(0, size, out->data());
}

Status WriteStringToFileAtomic(const std::string& path,
                               const Slice& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<WritableFile> file;
    PREGELIX_RETURN_NOT_OK(WritableFile::Open(tmp, nullptr, &file));
    PREGELIX_RETURN_NOT_OK(file->Append(contents));
    PREGELIX_RETURN_NOT_OK(file->Close());
  }
  return RenameFile(tmp, path);
}

Status OverwriteFile(const std::string& path, const Slice& contents) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    const bool missing_dir = errno == ENOENT;
    const std::string message = ErrnoMessage("open " + path);
    return missing_dir ? Status::NotFound(message) : Status::IoError(message);
  }
  Status s;
  {
    ScopedTimeCategory io_write(TimeCategory::kIoWrite);
    size_t allowed = contents.size();
    const Status injected = fault::MaybeFailWrite("io.file.write", &allowed);
    s = WriteFully(fd, contents.data(), allowed, path);
    if (s.ok()) s = injected;
    if (s.ok() && ::ftruncate(fd, static_cast<off_t>(contents.size())) != 0) {
      s = Status::IoError(ErrnoMessage("ftruncate " + path));
    }
  }
  if (::close(fd) != 0 && s.ok()) {
    s = Status::IoError(ErrnoMessage("close " + path));
  }
  return s;
}

Status RenameFile(const std::string& from, const std::string& to) {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("io.file.rename"));
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("rename " + from + " -> " + to));
  }
  return Status::OK();
}

Status ChecksumFile(const std::string& path, uint64_t* checksum) {
  uint64_t size = 0;
  PREGELIX_RETURN_NOT_OK(GetFileSize(path, &size));
  std::unique_ptr<RandomAccessFile> file;
  PREGELIX_RETURN_NOT_OK(RandomAccessFile::Open(path, nullptr, &file));
  uint64_t h = 14695981039346656037ull;
  std::string chunk(64 * 1024, '\0');
  for (uint64_t offset = 0; offset < size;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(chunk.size(), size - offset));
    PREGELIX_RETURN_NOT_OK(file->Read(offset, n, chunk.data()));
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<uint8_t>(chunk[i]);
      h *= 1099511628211ull;
    }
    offset += n;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  *checksum = h;
  return Status::OK();
}

}  // namespace pregelix
