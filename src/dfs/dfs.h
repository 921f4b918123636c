#ifndef PREGELIX_DFS_DFS_H_
#define PREGELIX_DFS_DFS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "io/file.h"

namespace pregelix {

/// Directory-backed stand-in for HDFS (see DESIGN.md substitutions).
///
/// Pregelix uses the DFS for graph input/output part files, the primary copy
/// of the global state GS, and checkpoints (paper Sections 5.2, 5.5). All
/// paths are relative to the DFS root; writes are atomic (temp + rename) to
/// match the durability the experiments rely on, except Overwrite's.
class DistributedFileSystem {
 public:
  explicit DistributedFileSystem(std::string root);

  const std::string& root() const { return root_; }
  std::string Resolve(const std::string& rel_path) const;

  Status Write(const std::string& rel_path, const Slice& contents);
  /// Overwrites a small file in place, creating it and its directory on
  /// first use (see OverwriteFile). Not atomic: for files nothing recovers
  /// from, such as the per-superstep GS primary copy.
  Status Overwrite(const std::string& rel_path, const Slice& contents);
  Status Append(const std::string& rel_path, const Slice& contents);
  /// Streaming writer for bulk data (graph part files, checkpoints).
  Status OpenForWrite(const std::string& rel_path,
                      std::unique_ptr<WritableFile>* out);
  /// Size of one file.
  Status FileSize(const std::string& rel_path, uint64_t* size) const;
  /// Total bytes under a directory (recursive).
  uint64_t DirSize(const std::string& rel_dir) const;
  Status Read(const std::string& rel_path, std::string* out) const;
  bool Exists(const std::string& rel_path) const;
  Status Delete(const std::string& rel_path);
  Status DeleteRecursive(const std::string& rel_path);
  Status MakeDirs(const std::string& rel_path);
  /// Lists file names (not paths) directly under a directory, sorted.
  Status List(const std::string& rel_dir, std::vector<std::string>* out) const;

 private:
  std::string root_;
};

}  // namespace pregelix

#endif  // PREGELIX_DFS_DFS_H_
