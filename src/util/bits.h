// Bit-granular arrays: fields of any width up to 32 bits packed
// LSB-first, as in little-endian 64-bit words, read in place with one
// shifted 8-byte load and written a 64-bit word at a time.
//
// The pooled sketch store (src/index/rr_sketch_pool.h) keeps its sketch
// blocks, its containing lists (Rice-coded root gaps, each with a raw
// mask) and its offset arrays (PackedWords) this way. A coded array ends
// in kBitPadding bytes past its last coded byte, so an 8-byte load at any
// of its coded bits stays inside it, and a load holds the array's next
// kBitWindow bits whatever the bit's place in its byte.

#ifndef PITEX_SRC_UTIL_BITS_H_
#define PITEX_SRC_UTIL_BITS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace pitex {

inline constexpr size_t kBitPadding = 7;
inline constexpr uint32_t kBitWindow = 57;
/// Eight zero bytes: what an array with no coded bits reads.
inline constexpr uint8_t kZeroWord[8] = {};

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

/// Overwrites the `width` (at most 32) bits at bit `pos` of a coded array
/// with the low bits of `value`, keeping every other bit: the inverse of
/// LoadBits. It updates the 64-bit words at multiples of 8 bytes from
/// `data` that the bits fall in, one or two: a store that follows
/// another in the same word then reads it back forwarded, where
/// overlapping loads and stores at byte offsets would stall on each.
inline void StoreBits(uint8_t* data, uint64_t pos, uint32_t width,
                      uint64_t value) {
  const auto update = [](uint8_t* at, uint64_t keep, uint64_t bits) {
    uint64_t word;
    std::memcpy(&word, at, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    word = (word & keep) | bits;
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(at, &word, sizeof(word));
  };
  uint8_t* at = data + (pos >> 6) * sizeof(uint64_t);
  const uint32_t shift = pos & 63;
  const uint64_t mask = LowMask(width);
  value &= mask;
  update(at, ~(mask << shift), value << shift);
  if (shift + width > 64) {
    update(at + sizeof(uint64_t), ~(mask >> (64 - shift)),
           value >> (64 - shift));
  }
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

/// Words of one width w, 0 to 32 bits, packed LSB-first from bit 0 of a
/// coded array and read in place: word i is bits [i w, (i + 1) w), one
/// LoadBits and a mask. An unsigned array's words are their values. A
/// signed array's are two's complement at w bits, read sign-extended to
/// a u32's two's complement, so adding one to an offset in u32
/// arithmetic gives the offset it names. The bytes are
/// PaddedBytes(size * w): the words, zero bits to the next byte, then
/// kBitPadding zero bytes. Every writer that knows its words (Assign,
/// Load) stores them once at the width the largest takes, in exact-size
/// storage; Push widens in place when a word does not fit, and its room
/// (zero bytes past the padding) doubles as a vector's does.
class PackedWords {
 public:
  /// The array's address, width and sign by value, so a loop that also
  /// stores bytes need not reload them.
  struct Reader {
    uint32_t operator[](size_t i) const {
      const auto word =
          static_cast<uint32_t>(LoadBits(data, i * width) & mask);
      return (word ^ sign) - sign;
    }
    const uint8_t* data = kZeroWord;
    uint32_t width = 0;
    uint32_t mask = 0;  // LowMask(width)
    uint32_t sign = 0;  // a signed array's top bit, else 0
  };

  PackedWords() = default;
  explicit PackedWords(bool is_signed) : signed_(is_signed) {}

  size_t size() const { return size_; }
  /// Bits per word.
  uint32_t width() const { return width_; }
  Reader reader() const {
    return {bytes_.empty() ? kZeroWord : bytes_.data(), width_, mask_, sign_};
  }
  uint32_t operator[](size_t i) const {
    PITEX_DCHECK(i < size_);
    return reader()[i];
  }

  /// Bits `word` takes in this array: bit_width(word), or for a signed
  /// array, where it is a u32's two's complement, 0 for 0 and else its
  /// magnitude's bits (of ~word below 0) and a sign bit.
  uint32_t BitsOf(uint32_t word) const {
    if (!signed_) return static_cast<uint32_t>(std::bit_width(word));
    if (word == 0) return 0;
    const auto value = static_cast<int32_t>(word);
    return static_cast<uint32_t>(std::bit_width(
               static_cast<uint32_t>(value < 0 ? ~value : value))) +
           1;
  }

  /// Appends a word, first widening every word in place to the bits it
  /// takes if it does not fit.
  void Push(uint32_t word) {
    // It fits when it is below 2^w, or for a signed array at least
    // -2^(w - 1) and below 2^(w - 1).
    if (((word + sign_) & ~mask_) != 0) [[unlikely]] Widen(BitsOf(word));
    PITEX_DCHECK(BitsOf(word) <= width_);
    const uint64_t pos = uint64_t{size_++} * width_;
    if (width_ == 0) return;
    const size_t need = PaddedBytes(pos + width_);
    if (need > bytes_.size()) [[unlikely]] {
      bytes_.resize(std::max(need, 2 * bytes_.size()));
    }
    StoreBits(bytes_.data(), pos, width_, word);
  }
  /// Makes the array the `count` words word(0) .. word(count - 1), at the
  /// width the largest takes, in exact-size storage.
  template <typename Word>
  void Assign(size_t count, Word&& word) {
    uint32_t width = 0;
    for (size_t i = 0; i < count; ++i) {
      width = std::max(width, BitsOf(static_cast<uint32_t>(word(i))));
    }
    std::vector<uint8_t> bytes(PaddedBytes(uint64_t{count} * width), 0);
    if (width != 0) {
      BitWriter out(bytes.data());
      for (size_t i = 0; i < count; ++i) {
        const auto value = static_cast<uint32_t>(word(i));
        PITEX_DCHECK(BitsOf(value) <= width);
        out.Put(value & LowMask(width), width);
      }
      out.Finish();
    }
    bytes_ = std::move(bytes);
    size_ = count;
    SetWidth(width);
  }
  /// Makes the array the `count` words of `width` bits packed in `bytes`
  /// (packed()), in exact-size storage. False, and the array unchanged,
  /// unless width <= 32, `bytes` holds exactly ceil(count * width / 8)
  /// bytes and the bits after the last word are zero.
  bool Load(std::span<const uint8_t> bytes, size_t count, uint32_t width) {
    const uint64_t bits = uint64_t{count} * width;
    if (width > 32 || bytes.size() != (bits + 7) / 8 ||
        ((bits & 7) != 0 && (bytes.back() >> (bits & 7)) != 0)) {
      return false;
    }
    std::vector<uint8_t> padded(PaddedBytes(bits), 0);
    if (!bytes.empty()) std::memcpy(padded.data(), bytes.data(), bytes.size());
    bytes_ = std::move(padded);
    size_ = count;
    SetWidth(width);
    return true;
  }
  /// The words' bytes without the padding: what Load takes.
  std::span<const uint8_t> packed() const {
    return {bytes_.data(), static_cast<size_t>(
                               (uint64_t{size_} * width_ + 7) / 8)};
  }
  /// Drops every word, keeping capacity, and returns to width 0.
  void Clear() {
    bytes_.clear();
    size_ = 0;
    SetWidth(0);
  }
  size_t SizeBytes() const { return bytes_.capacity(); }

 private:
  /// Rewrites every word at `width` bits, back to front, so no word is
  /// overwritten before it is read.
  void Widen(uint32_t width) {
    const Reader old = reader();
    bytes_.resize(PaddedBytes(uint64_t{size_} * width));
    const Reader from{bytes_.data(), old.width, old.mask, old.sign};
    for (size_t i = size_; i-- > 0;) {
      StoreBits(bytes_.data(), uint64_t{i} * width, width, from[i]);
    }
    SetWidth(width);
  }

  /// Sets the width and the mask and sign bit a read takes from it.
  void SetWidth(uint32_t width) {
    width_ = width;
    mask_ = static_cast<uint32_t>(LowMask(width));
    sign_ = signed_ && width != 0 ? 1u << (width - 1) : 0;
  }

  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
  uint32_t width_ = 0;
  uint32_t mask_ = 0;  // LowMask(width_)
  uint32_t sign_ = 0;  // a signed array's top bit, else 0
  bool signed_ = false;
};

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_BITS_H_
