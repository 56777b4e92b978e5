// Bit-granular arrays: fields of any width up to 32 bits packed
// LSB-first, as in little-endian 64-bit words, read in place with one
// shifted 8-byte load and written a 64-bit word at a time.
//
// The pooled sketch store (src/index/rr_sketch_pool.h) keeps both its
// sketch blocks and its containing lists (Rice-coded root gaps, each
// with a raw mask) this way. A coded array ends in kBitPadding bytes
// past its last coded byte, so an 8-byte load at any of its coded bits
// stays inside it, and a load holds the array's next kBitWindow bits
// whatever the bit's place in its byte.

#ifndef PITEX_SRC_UTIL_BITS_H_
#define PITEX_SRC_UTIL_BITS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace pitex {

inline constexpr size_t kBitPadding = 7;
inline constexpr uint32_t kBitWindow = 57;

/// Bytes a coded array of `bits` bits takes, its padding included (none
/// when it codes nothing).
inline size_t PaddedBytes(uint64_t bits) {
  return bits == 0 ? 0 : static_cast<size_t>((bits + 7) / 8) + kBitPadding;
}

/// The low `bits` (at most 63) bits set.
constexpr uint64_t LowMask(uint32_t bits) { return (uint64_t{1} << bits) - 1; }

/// Bits a field takes that holds every id below `count`:
/// bit_width(count - 1), and 0 when count <= 1.
inline uint32_t IdBits(uint64_t count) {
  return count <= 1 ? 0 : static_cast<uint32_t>(std::bit_width(count - 1));
}

/// How many bits of x are set: an inline SWAR sum, since std::popcount
/// is a library call on baseline x86-64, the default build's target.
inline uint32_t PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

/// The 8 bytes of a coded array from bit `pos`'s byte, shifted down to
/// bit `pos`: its low kBitWindow bits are the array's.
inline uint64_t LoadBits(const uint8_t* data, uint64_t pos) {
  uint64_t word;
  std::memcpy(&word, data + (pos >> 3), sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word >> (pos & 7);
}

/// Writes fields one after another from bit 0 of `out`, a 64-bit word at
/// a time: bits gather in a register, so each byte is stored once and
/// never read back. The last word is stored whole, so `out` needs
/// kBitPadding bytes past the last byte written, and the bits past the
/// last field there are zero.
class BitWriter {
 public:
  explicit BitWriter(uint8_t* out) : out_(out) {}

  /// Appends the low n (< 64) bits of `bits`, whose higher bits must be
  /// clear.
  void Put(uint64_t bits, uint32_t n) {
    const uint32_t used = pos_ & 63;
    word_ |= bits << used;
    if (used + n >= 64) {
      Store(pos_ >> 6);
      // used > 0 here, as n < 64: the bits the stored word had no room
      // for.
      word_ = bits >> (64 - used);
    }
    pos_ += n;
  }
  /// Bits put so far.
  uint64_t position() const { return pos_; }
  /// Stores the last, partial word and returns the bits written.
  uint64_t Finish() {
    if ((pos_ & 63) != 0) Store(pos_ >> 6);
    return pos_;
  }

 private:
  /// Stores word_ as 64-bit word w of the array.
  void Store(uint64_t w) {
    uint64_t word = word_;
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out_ + w * sizeof(word), &word, sizeof(word));
  }

  uint8_t* out_;
  uint64_t pos_ = 0;
  uint64_t word_ = 0;  // the bits of word pos_ >> 6 written so far
};

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_BITS_H_
