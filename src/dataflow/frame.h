#ifndef PREGELIX_DATAFLOW_FRAME_H_
#define PREGELIX_DATAFLOW_FRAME_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"

namespace pregelix {

/// Binary frame layout (Hyracks style).
///
/// A frame is the unit of data exchange between operators: a byte buffer of
/// nominally `frame_size` bytes holding a batch of tuples. Layout:
///
///   [tuple 0 bytes][tuple 1 bytes]...[free]...[slot n-1]...[slot 0][count]
///
/// where `count` is a u32 in the last 4 bytes, and slot i (u32, growing
/// backwards from the end) holds the END offset of tuple i's bytes. Tuple i
/// occupies [slot(i-1), slot(i)) with slot(-1) = 0.
///
/// A tuple with F fields is encoded as F u32 field-end offsets (relative to
/// the start of the field data area) followed by the concatenated field
/// bytes. Field access is therefore O(1) and zero-copy.
///
/// A single tuple larger than the nominal frame size gets a dedicated
/// oversized frame (web graphs have vertices whose edge lists exceed any
/// fixed frame size).

/// Read-only cursor over the tuples of one frame.
class FrameTupleAccessor {
 public:
  explicit FrameTupleAccessor(int field_count) : field_count_(field_count) {}

  void Reset(Slice frame) { frame_ = frame; }

  int field_count() const { return field_count_; }
  int tuple_count() const;

  /// Byte range of tuple t (offset header + field data).
  Slice tuple_bytes(int t) const;

  /// Zero-copy view of field f of tuple t.
  Slice field(int t, int f) const;

 private:
  uint32_t TupleStart(int t) const;
  uint32_t TupleEnd(int t) const;

  int field_count_;
  Slice frame_;
};

/// Builds frames tuple by tuple.
class FrameTupleAppender {
 public:
  FrameTupleAppender(size_t frame_size, int field_count);

  /// Appends a tuple from field slices. Returns false when the tuple does
  /// not fit in the current non-empty frame (caller should flush and retry).
  /// A tuple too large for an empty frame grows that frame (oversized frame)
  /// and returns true.
  bool Append(std::span<const Slice> fields);

  /// Appends pre-encoded tuple bytes (as returned by
  /// FrameTupleAccessor::tuple_bytes); same fitting rules as Append.
  bool AppendRaw(const Slice& tuple_bytes);

  int tuple_count() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t bytes_used() const { return data_end_ + 4u * count_ + 4u; }

  /// Finalizes and moves the frame buffer out; the appender resets to a
  /// fresh empty frame.
  std::string Take();

  /// Finalizes in place and returns a view of the frame; the appender keeps
  /// ownership, and the next Reset() reuses the same buffer. Preferred on
  /// spill/merge paths where the frame is written straight to a file:
  /// unlike Take(), no allocation and no full-frame zeroing per frame. The
  /// view is valid until the next Append/Reset/Take.
  const std::string& FinalizeView();

  void Reset();

 private:
  bool EnsureRoom(size_t tuple_size);
  void WriteSlot(int index, uint32_t end_offset);
  void Finalize();

  const size_t frame_size_;
  const int field_count_;
  std::string buffer_;
  size_t data_end_ = 0;
  int count_ = 0;
  std::vector<uint32_t> slots_;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_FRAME_H_
