// PackedWords (src/util/bits.h), the bit-packed word array the pooled
// sketch store keeps its directory words and its root and containing
// starts in: every width from 0 to 32 bits reads back what was written,
// signed words sign-extend from their two's-complement extremes, a Push
// that does not fit widens every word in place, Assign and Load store
// exactly PaddedBytes(count * width) bytes, and every bit after the last
// word is zero.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bits.h"

namespace pitex {
namespace {

// The bytes of `words`, its padding included: PaddedBytes(size * width).
std::vector<uint8_t> Bytes(const PackedWords& words) {
  const uint8_t* data = words.reader().data;
  return std::vector<uint8_t>(
      data, data + PaddedBytes(uint64_t{words.size()} * words.width()));
}

// Expects `words` to hold exactly `want`, at `width` bits, in
// exact-size storage whose bits after the last word are all zero.
void ExpectHolds(const PackedWords& words, const std::vector<uint32_t>& want,
                 uint32_t width) {
  ASSERT_EQ(words.size(), want.size());
  EXPECT_EQ(words.width(), width);
  const PackedWords::Reader reader = words.reader();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(words[i], want[i]) << "word " << i;
    EXPECT_EQ(reader[i], want[i]) << "word " << i;
  }
  const uint64_t bits = uint64_t{want.size()} * width;
  EXPECT_EQ(words.packed().size(), (bits + 7) / 8);
  const std::vector<uint8_t> bytes = Bytes(words);
  for (uint64_t bit = bits; bit < 8 * bytes.size(); ++bit) {
    ASSERT_EQ((bytes[bit / 8] >> (bit % 8)) & 1, 0) << "bit " << bit;
  }
}

// Words of at most `width` bits, the largest 2^width - 1 among them:
// zero, the largest, and a spread of values between.
std::vector<uint32_t> UnsignedWords(uint32_t width) {
  const auto top = static_cast<uint32_t>(LowMask(width));
  std::vector<uint32_t> words = {0, top};
  for (uint32_t k = 0; k < 13; ++k) {
    words.push_back(static_cast<uint32_t>((k * 0x9e3779b9u) & top));
  }
  words.push_back(top);
  return words;
}

// Words of `width` (1 to 32) bits in two's complement, read as u32s:
// -2^(width - 1), 2^(width - 1) - 1, -1, 0 and 1 where they fit.
std::vector<uint32_t> SignedExtremes(uint32_t width) {
  const int64_t low = -(int64_t{1} << (width - 1));
  const int64_t high = (int64_t{1} << (width - 1)) - 1;
  std::vector<uint32_t> words = {static_cast<uint32_t>(low),
                                 static_cast<uint32_t>(high),
                                 static_cast<uint32_t>(-1), 0};
  if (high >= 1) words.push_back(1);
  words.push_back(static_cast<uint32_t>(low));
  return words;
}

TEST(PackedWordsTest, EveryUnsignedWidthReadsBack) {
  for (uint32_t width = 0; width <= 32; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::vector<uint32_t> want = UnsignedWords(width);
    PackedWords assigned;
    assigned.Assign(want.size(), [&want](size_t i) { return want[i]; });
    ExpectHolds(assigned, want, width);
    // Every writer ends at the same width and bytes.
    PackedWords pushed;
    for (const uint32_t word : want) pushed.Push(word);
    ExpectHolds(pushed, want, width);
    EXPECT_EQ(Bytes(pushed), Bytes(assigned));
    // One more than the largest takes a bit more.
    if (width < 32) {
      EXPECT_EQ(assigned.BitsOf(static_cast<uint32_t>(LowMask(width))),
                width);
      EXPECT_EQ(assigned.BitsOf(uint32_t{1} << width), width + 1);
    }
  }
}

TEST(PackedWordsTest, EverySignedWidthSignExtendsItsExtremes) {
  for (uint32_t width = 1; width <= 32; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::vector<uint32_t> want = SignedExtremes(width);
    PackedWords assigned(/*is_signed=*/true);
    assigned.Assign(want.size(), [&want](size_t i) { return want[i]; });
    ExpectHolds(assigned, want, width);
    PackedWords pushed(/*is_signed=*/true);
    for (const uint32_t word : want) pushed.Push(word);
    ExpectHolds(pushed, want, width);
    EXPECT_EQ(Bytes(pushed), Bytes(assigned));
    // Past either extreme takes a bit more.
    if (width < 32) {
      const int64_t low = -(int64_t{1} << (width - 1));
      const int64_t high = (int64_t{1} << (width - 1)) - 1;
      EXPECT_EQ(assigned.BitsOf(static_cast<uint32_t>(low - 1)), width + 1);
      EXPECT_EQ(assigned.BitsOf(static_cast<uint32_t>(high + 1)), width + 1);
    }
  }
  // A signed array of zeros takes no bits.
  PackedWords zeros(/*is_signed=*/true);
  for (int i = 0; i < 5; ++i) zeros.Push(0);
  ExpectHolds(zeros, {0, 0, 0, 0, 0}, 0);
  EXPECT_EQ(zeros.SizeBytes(), 0u);
}

TEST(PackedWordsTest, PushWidensMidArrayFromEachWidthToEachWider) {
  for (const bool is_signed : {false, true}) {
    for (uint32_t from = is_signed ? 1 : 0; from < 32; ++from) {
      for (uint32_t to = from + 1; to <= 32; ++to) {
        SCOPED_TRACE(std::string(is_signed ? "signed" : "unsigned") +
                     " from " + std::to_string(from) + " to " +
                     std::to_string(to));
        std::vector<uint32_t> want = is_signed ? SignedExtremes(from)
                                               : UnsignedWords(from);
        // A word that takes `to` bits, then the narrow words again.
        const std::vector<uint32_t> narrow = want;
        want.push_back(is_signed ? static_cast<uint32_t>(
                                       -(int64_t{1} << (to - 1)))
                                 : static_cast<uint32_t>(LowMask(to)));
        want.insert(want.end(), narrow.begin(), narrow.end());
        PackedWords pushed(is_signed);
        for (size_t i = 0; i < want.size(); ++i) {
          if (i == narrow.size()) {
            ASSERT_EQ(pushed.width(), from);
          }
          pushed.Push(want[i]);
        }
        ExpectHolds(pushed, want, to);
        PackedWords assigned(is_signed);
        assigned.Assign(want.size(), [&want](size_t i) { return want[i]; });
        EXPECT_EQ(Bytes(pushed), Bytes(assigned));
      }
    }
  }
}

TEST(PackedWordsTest, AssignAndLoadStoreExactSize) {
  for (const uint32_t width : {0u, 1u, 5u, 10u, 14u, 31u, 32u}) {
    for (const size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                               size_t{63}, size_t{1000}}) {
      SCOPED_TRACE("width " + std::to_string(width) + " count " +
                   std::to_string(count));
      std::vector<uint32_t> want(count);
      for (size_t i = 0; i < count; ++i) {
        want[i] = static_cast<uint32_t>((i * 2654435761u) & LowMask(width));
      }
      if (count > 0) want.back() = static_cast<uint32_t>(LowMask(width));
      PackedWords words;
      words.Assign(count, [&want](size_t i) { return want[i]; });
      EXPECT_EQ(words.SizeBytes(), PaddedBytes(uint64_t{count} * width));
      ExpectHolds(words, want, count == 0 ? 0 : width);
      PackedWords loaded;
      ASSERT_TRUE(loaded.Load(words.packed(), count, words.width()));
      EXPECT_EQ(loaded.SizeBytes(), words.SizeBytes());
      ExpectHolds(loaded, want, words.width());
    }
  }
}

TEST(PackedWordsTest, LoadRefusesAnyOtherLengthWidthOrPadBit) {
  // Five 5-bit words: 25 bits, so 4 bytes whose last 7 bits are pad.
  const std::vector<uint32_t> want = {1, 31, 0, 17, 30};
  PackedWords words;
  words.Assign(want.size(), [&want](size_t i) { return want[i]; });
  ASSERT_EQ(words.width(), 5u);
  const std::vector<uint8_t> packed(words.packed().begin(),
                                    words.packed().end());
  ASSERT_EQ(packed.size(), 4u);
  PackedWords loaded;
  ASSERT_TRUE(loaded.Load(packed, want.size(), 5));
  // A byte more or fewer, a width above 32 or a set pad bit: refused,
  // and the array left as it was.
  std::vector<uint8_t> longer = packed;
  longer.push_back(0);
  const std::vector<uint8_t> shorter(packed.begin(), packed.end() - 1);
  std::vector<uint8_t> pad_bit = packed;
  pad_bit.back() |= 0x80;
  EXPECT_FALSE(loaded.Load(longer, want.size(), 5));
  EXPECT_FALSE(loaded.Load(shorter, want.size(), 5));
  EXPECT_FALSE(loaded.Load(pad_bit, want.size(), 5));
  EXPECT_FALSE(loaded.Load(packed, 0, 33));
  ExpectHolds(loaded, want, 5);
  // Whole bytes have no pad bit: 8 words of 1 bit.
  EXPECT_TRUE(loaded.Load(std::vector<uint8_t>{0xff}, 8, 1));
  ExpectHolds(loaded, std::vector<uint32_t>(8, 1), 1);
  // Width 0 holds any count in no bytes.
  EXPECT_TRUE(loaded.Load({}, 3, 0));
  ExpectHolds(loaded, {0, 0, 0}, 0);
  EXPECT_FALSE(loaded.Load(std::vector<uint8_t>{0}, 3, 0));
}

TEST(PackedWordsTest, ClearReturnsToWidthZero) {
  PackedWords words(/*is_signed=*/true);
  words.Push(static_cast<uint32_t>(-300));
  EXPECT_EQ(words.width(), 10u);
  words.Clear();
  EXPECT_EQ(words.size(), 0u);
  EXPECT_EQ(words.width(), 0u);
  words.Push(3);
  ExpectHolds(words, {3}, 3);
}

}  // namespace
}  // namespace pitex
