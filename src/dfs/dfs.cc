#include "dfs/dfs.h"

#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "common/temp_dir.h"
#include "io/file.h"

namespace pregelix {

namespace fs = std::filesystem;

DistributedFileSystem::DistributedFileSystem(std::string root)
    : root_(std::move(root)) {
  PREGELIX_CHECK(EnsureDir(root_)) << "cannot create DFS root " << root_;
}

std::string DistributedFileSystem::Resolve(const std::string& rel) const {
  return (fs::path(root_) / rel).string();
}

Status DistributedFileSystem::Write(const std::string& rel,
                                    const Slice& contents) {
  const std::string path = Resolve(rel);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  return WriteStringToFileAtomic(path, contents);
}

Status DistributedFileSystem::Overwrite(const std::string& rel,
                                        const Slice& contents) {
  const std::string path = Resolve(rel);
  Status s = OverwriteFile(path, contents);
  if (!s.IsNotFound()) return s;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  return OverwriteFile(path, contents);
}

Status DistributedFileSystem::Append(const std::string& rel,
                                     const Slice& contents) {
  const std::string path = Resolve(rel);
  std::string existing;
  if (FileExists(path)) {
    PREGELIX_RETURN_NOT_OK(ReadFileToString(path, &existing));
  } else {
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
  }
  existing.append(contents.data(), contents.size());
  return WriteStringToFileAtomic(path, existing);
}

Status DistributedFileSystem::OpenForWrite(
    const std::string& rel, std::unique_ptr<WritableFile>* out) {
  const std::string path = Resolve(rel);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  return WritableFile::Open(path, nullptr, out);
}

Status DistributedFileSystem::FileSize(const std::string& rel,
                                       uint64_t* size) const {
  return GetFileSize(Resolve(rel), size);
}

uint64_t DistributedFileSystem::DirSize(const std::string& rel) const {
  uint64_t total = 0;
  std::error_code ec;
  fs::recursive_directory_iterator it(Resolve(rel), ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

Status DistributedFileSystem::Read(const std::string& rel,
                                   std::string* out) const {
  return ReadFileToString(Resolve(rel), out);
}

bool DistributedFileSystem::Exists(const std::string& rel) const {
  return FileExists(Resolve(rel));
}

Status DistributedFileSystem::Delete(const std::string& rel) {
  DeleteFileIfExists(Resolve(rel));
  return Status::OK();
}

Status DistributedFileSystem::DeleteRecursive(const std::string& rel) {
  RemoveAll(Resolve(rel));
  return Status::OK();
}

Status DistributedFileSystem::MakeDirs(const std::string& rel) {
  if (!EnsureDir(Resolve(rel))) {
    return Status::IoError("mkdirs " + rel);
  }
  return Status::OK();
}

Status DistributedFileSystem::List(const std::string& rel,
                                   std::vector<std::string>* out) const {
  out->clear();
  std::error_code ec;
  fs::directory_iterator it(Resolve(rel), ec);
  if (ec) return Status::NotFound("list " + rel);
  for (const auto& entry : it) {
    out->push_back(entry.path().filename().string());
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

}  // namespace pregelix
