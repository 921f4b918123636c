#ifndef PREGELIX_PREGEL_SERDE_H_
#define PREGELIX_PREGEL_SERDE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/serde.h"
#include "common/slice.h"

namespace pregelix {

/// Value serialization for the typed Pregel API (the analog of Hadoop's
/// Writable types the paper's Java API uses: VLongWritable, DoubleWritable,
/// ...). Specialize Serde<T> for custom vertex/edge/message types. Read
/// overwrites all of *value: the typed adapter reads into objects it reuses.
template <typename T, typename Enable = void>
struct Serde;

/// All trivially copyable types (ints, doubles, PODs without pointers).
template <typename T>
struct Serde<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static void Write(const T& value, std::string* out) {
    out->append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  static bool Read(Slice* in, T* value) {
    if (in->size() < sizeof(T)) return false;
    memcpy(value, in->data(), sizeof(T));
    in->remove_prefix(sizeof(T));
    return true;
  }
};

template <>
struct Serde<std::string> {
  static void Write(const std::string& value, std::string* out) {
    PutLengthPrefixed(out, Slice(value));
  }
  static bool Read(Slice* in, std::string* value) {
    Slice s;
    if (!GetLengthPrefixed(in, &s)) return false;
    value->assign(s.data(), s.size());
    return true;
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  static void Write(const std::vector<T>& value, std::string* out) {
    PutFixed32(out, static_cast<uint32_t>(value.size()));
    for (const T& item : value) Serde<T>::Write(item, out);
  }
  static bool Read(Slice* in, std::vector<T>* value) {
    if (in->size() < 4) return false;
    const uint32_t n = DecodeFixed32(in->data());
    in->remove_prefix(4);
    value->clear();
    // The count is untrusted: reserve at most one item per byte left. Only
    // 0-byte items (Empty) can outnumber the bytes; push_back grows for them.
    value->reserve(std::min<size_t>(n, in->size()));
    for (uint32_t i = 0; i < n; ++i) {
      T item;
      if (!Serde<T>::Read(in, &item)) return false;
      value->push_back(std::move(item));
    }
    return true;
  }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Write(const std::pair<A, B>& value, std::string* out) {
    Serde<A>::Write(value.first, out);
    Serde<B>::Write(value.second, out);
  }
  static bool Read(Slice* in, std::pair<A, B>* value) {
    return Serde<A>::Read(in, &value->first) &&
           Serde<B>::Read(in, &value->second);
  }
};

/// Marker type for algorithms whose messages or values carry no data
/// (e.g. reachability signals).
struct Empty {};

template <>
struct Serde<Empty> {
  static void Write(const Empty&, std::string*) {}
  static bool Read(Slice*, Empty*) { return true; }
};

/// One-call helpers.
template <typename T>
std::string SerializeValue(const T& value) {
  std::string out;
  Serde<T>::Write(value, &out);
  return out;
}

template <typename T>
bool DeserializeValue(const Slice& bytes, T* value) {
  Slice in = bytes;
  return Serde<T>::Read(&in, value);
}

/// Appends `value` serialized and prefixed with its u32 length: the bytes
/// of PutLengthPrefixed(out, SerializeValue(value)), with no temporary.
template <typename T>
void PutLengthPrefixedValue(std::string* out, const T& value) {
  const size_t at = out->size();
  out->append(4, '\0');
  Serde<T>::Write(value, out);
  EncodeFixed32(out->data() + at,
                static_cast<uint32_t>(out->size() - at - 4));
}

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_SERDE_H_
