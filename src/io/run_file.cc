#include "io/run_file.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/serde.h"

namespace pregelix {

Status RunFileWriter::Open(const std::string& path, WorkerMetrics* metrics,
                           std::unique_ptr<RunFileWriter>* out) {
  std::unique_ptr<WritableFile> file;
  PREGELIX_RETURN_NOT_OK(WritableFile::Open(path, metrics, &file));
  out->reset(new RunFileWriter(std::move(file)));
  return Status::OK();
}

Status RunFileWriter::AppendBlock(const Slice& block) {
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("io.run_file.append"));
  char header[4];
  EncodeFixed32(header, static_cast<uint32_t>(block.size()));
  PREGELIX_RETURN_NOT_OK(file_->Append(Slice(header, 4)));
  PREGELIX_RETURN_NOT_OK(file_->Append(block));
  ++num_blocks_;
  bytes_appended_ += 4 + block.size();
  return Status::OK();
}

Status RunFileWriter::Finish() { return file_->Close(); }

Status RunFileReader::Open(const std::string& path, WorkerMetrics* metrics,
                           std::unique_ptr<RunFileReader>* out) {
  std::unique_ptr<RandomAccessFile> file;
  PREGELIX_RETURN_NOT_OK(
      RandomAccessFile::Open(path, metrics, &file, /*read_only=*/true));
  out->reset(new RunFileReader(std::move(file)));
  return Status::OK();
}

Status RunFileReader::NextBlock(std::string* out) {
  if (AtEnd()) return Status::NotFound("eof");
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("io.run_file.read"));
  char header[4];
  PREGELIX_RETURN_NOT_OK(file_->Read(offset_, 4, header));
  const uint32_t len = DecodeFixed32(header);
  out->resize(len);
  if (len > 0) {
    PREGELIX_RETURN_NOT_OK(file_->Read(offset_ + 4, len, out->data()));
  }
  offset_ += 4 + len;
  return Status::OK();
}

}  // namespace pregelix
