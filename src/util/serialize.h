// Binary little-endian serialization primitives with checksumming.
//
// Index files (src/index/index_io.h) are binary because an RR-Graph index
// is orders of magnitude larger than its source network (Table 3): text
// encoding would triple the footprint and dominate load time. The writer
// streams fixed-width little-endian scalars and length-prefixed vectors
// while folding every byte into a running FNV-1a hash; the reader verifies
// the trailing checksum so that truncated or bit-flipped files are
// rejected instead of silently yielding a corrupt index.
//
// The encoding is independent of host endianness (bytes are assembled
// explicitly), so files are portable across platforms. A vector moves
// as one block of bytes on a little-endian host, where each element's
// memory already is its encoding, and element by element elsewhere;
// both write, read and hash the same bytes.

#ifndef PITEX_SRC_UTIL_SERIALIZE_H_
#define PITEX_SRC_UTIL_SERIALIZE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pitex {

/// Writes the low `width` bytes of `value` to `buf`, least significant
/// first.
void EncodeLe(uint64_t value, size_t width, unsigned char* buf);
/// Inverse of EncodeLe: assembles `width` little-endian bytes.
uint64_t DecodeLe(const unsigned char* buf, size_t width);

/// Incremental FNV-1a (64-bit) hash, used as the file checksum. Not
/// cryptographic; detects truncation and random corruption.
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void Update(const void* data, size_t size);
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = kOffsetBasis;
};

/// Streams little-endian binary values to an ostream, checksumming as it
/// goes. All Write* calls fail silently once the underlying stream fails;
/// call ok() (or check the stream) before trusting the output.
class BinaryWriter {
 public:
  /// `out` must outlive the writer.
  explicit BinaryWriter(std::ostream* out) : out_(out) {}

  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  /// Doubles and floats are encoded via their IEEE-754 bit patterns.
  void WriteF32(float value);
  void WriteF64(double value);
  /// Length-prefixed (u64) byte string.
  void WriteString(std::string_view value);
  /// Raw bytes, no length prefix (caller encodes the count separately).
  void WriteBytes(const void* data, size_t size);

  /// Length-prefixed vector of fixed-width scalars.
  template <typename T>
  void WriteVector(std::span<const T> values);

  /// Appends the running checksum (not itself checksummed). Call exactly
  /// once, last.
  void WriteChecksum();

  /// True while every write so far has succeeded.
  bool ok() const;
  uint64_t digest() const { return hash_.digest(); }

 private:
  std::ostream* out_;
  Fnv1a hash_;
};

/// Reads values written by BinaryWriter, re-computing the checksum.
/// Every Read* returns false on stream failure; after a false return the
/// reader is poisoned and all further reads fail.
class BinaryReader {
 public:
  /// `in` must outlive the reader.
  explicit BinaryReader(std::istream* in) : in_(in) {}

  bool ReadU8(uint8_t* value);
  bool ReadU32(uint32_t* value);
  bool ReadU64(uint64_t* value);
  bool ReadF32(float* value);
  bool ReadF64(double* value);
  /// Length-prefixed string of at most 1 MiB — the bound for the
  /// short strings of file headers (magic tags, file names).
  bool ReadString(std::string* value);
  /// Length-prefixed string of at most `max_bytes`, for callers that
  /// know how many bytes the enclosing record holds.
  bool ReadString(std::string* value, uint64_t max_bytes);
  bool ReadBytes(void* data, size_t size);

  /// Length-prefixed vector of fixed-width scalars. `max_elements` guards
  /// against allocating pathological sizes from corrupt headers.
  template <typename T>
  bool ReadVector(std::vector<T>* values, uint64_t max_elements);
  /// ReadVector reads at most this many bytes per step, and grows its
  /// buffer for a step only after the steps before it have arrived.
  static constexpr size_t kMaxReadStepBytes = size_t{1} << 20;

  /// Reads the trailing checksum and compares with the recomputed digest.
  bool VerifyChecksum();
  /// True when no byte follows the ones read: a file that must end at
  /// its checksum checks this after VerifyChecksum.
  bool NoBytesLeft();

  bool ok() const { return !failed_; }
  /// After a failed read: true when the failure was the stream ending
  /// (EOF) rather than a device error -- the signature of a torn write
  /// (an interrupted writer left a valid prefix). Meaningless while
  /// ok() is still true.
  bool at_end_of_stream() const;
  uint64_t digest() const { return hash_.digest(); }

 private:
  std::istream* in_;
  Fnv1a hash_;
  bool failed_ = false;
};

// Implementation details only below here.

template <typename T>
void BinaryWriter::WriteVector(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>,
                "WriteVector requires trivially copyable elements");
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                "unsupported element width");
  WriteU64(values.size());
  if constexpr (std::endian::native == std::endian::little) {
    WriteBytes(values.data(), values.size_bytes());
    return;
  }
  for (const T& v : values) {
    if constexpr (sizeof(T) == 1) {
      WriteU8(static_cast<uint8_t>(v));
    } else if constexpr (sizeof(T) == 4 && std::is_floating_point_v<T>) {
      WriteF32(static_cast<float>(v));
    } else if constexpr (sizeof(T) == 4) {
      WriteU32(static_cast<uint32_t>(v));
    } else if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>) {
      WriteF64(static_cast<double>(v));
    } else {
      static_assert(sizeof(T) == 8, "unsupported element width");
      WriteU64(static_cast<uint64_t>(v));
    }
  }
}

template <typename T>
bool BinaryReader::ReadVector(std::vector<T>* values, uint64_t max_elements) {
  static_assert(std::is_trivially_copyable_v<T>,
                "ReadVector requires trivially copyable elements");
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                "unsupported element width");
  uint64_t count = 0;
  if (!ReadU64(&count) || count > max_elements) {
    failed_ = true;
    return false;
  }
  // Grow as bytes arrive instead of resize(count): callers pass generous
  // max_elements bounds, so a corrupt length prefix could otherwise
  // drive one pathological upfront allocation before a single payload
  // byte is validated. Memory stays proportional to the bytes actually
  // present -- a truncated stream fails within one step of its end
  // (tests/fuzz/index_io_fuzz.cc exercises this).
  values->clear();
  if constexpr (std::endian::native == std::endian::little) {
    constexpr uint64_t kStep = kMaxReadStepBytes / sizeof(T);
    while (values->size() < count) {
      const size_t have = values->size();
      const auto step =
          static_cast<size_t>(std::min<uint64_t>(kStep, count - have));
      values->resize(have + step);
      if (!ReadBytes(values->data() + have, step * sizeof(T))) return false;
    }
    return true;
  }
  for (uint64_t i = 0; i < count; ++i) {
    T v;
    bool read_ok;
    if constexpr (sizeof(T) == 1) {
      uint8_t raw;
      read_ok = ReadU8(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 4 && std::is_floating_point_v<T>) {
      float raw;
      read_ok = ReadF32(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 4) {
      uint32_t raw;
      read_ok = ReadU32(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>) {
      double raw;
      read_ok = ReadF64(&raw);
      v = static_cast<T>(raw);
    } else {
      static_assert(sizeof(T) == 8, "unsupported element width");
      uint64_t raw;
      read_ok = ReadU64(&raw);
      v = static_cast<T>(raw);
    }
    if (!read_ok) return false;
    values->push_back(v);
  }
  return true;
}

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_SERIALIZE_H_
