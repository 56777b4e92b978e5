// Tests for the binary serialization primitives (src/util/serialize.h):
// round trips, endianness-independent layout, checksum verification, and
// failure poisoning.

#include "src/util/serialize.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"

namespace pitex {
namespace {

TEST(Fnv1aTest, MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  Fnv1a empty;
  EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ULL);

  Fnv1a a;
  a.Update("a", 1);
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);

  Fnv1a foobar;
  foobar.Update("foobar", 6);
  EXPECT_EQ(foobar.digest(), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, IncrementalEqualsOneShot) {
  Fnv1a one_shot;
  one_shot.Update("hello world", 11);
  Fnv1a incremental;
  incremental.Update("hello", 5);
  incremental.Update(" ", 1);
  incremental.Update("world", 5);
  EXPECT_EQ(one_shot.digest(), incremental.digest());
}

TEST(BinaryWriterTest, ScalarsRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteF32(3.5f);
  writer.WriteF64(-2.718281828459045);
  writer.WriteString("pitex");
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(&stream);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string str;
  ASSERT_TRUE(reader.ReadU8(&u8));
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadF32(&f32));
  ASSERT_TRUE(reader.ReadF64(&f64));
  ASSERT_TRUE(reader.ReadString(&str));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(f32, 3.5f);
  EXPECT_EQ(f64, -2.718281828459045);
  EXPECT_EQ(str, "pitex");
}

TEST(BinaryWriterTest, LittleEndianLayout) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(0x01020304);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(BinaryWriterTest, SpecialFloatsRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteF64(std::numeric_limits<double>::infinity());
  writer.WriteF64(-0.0);
  writer.WriteF64(std::numeric_limits<double>::quiet_NaN());
  writer.WriteF64(std::numeric_limits<double>::denorm_min());

  BinaryReader reader(&stream);
  double value = 0;
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_TRUE(std::isinf(value));
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_EQ(value, 0.0);
  EXPECT_TRUE(std::signbit(value));
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_TRUE(std::isnan(value));
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_EQ(value, std::numeric_limits<double>::denorm_min());
}

TEST(BinaryWriterTest, VectorsRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  const std::vector<uint32_t> ids = {7, 0, 42, 0xffffffffu};
  const std::vector<uint64_t> wide = {1ULL << 60, 3};
  const std::vector<float> probs = {0.25f, 1.0f, 0.0f};
  const std::vector<double> exact = {0.1, 0.2};
  const std::vector<uint8_t> flags = {0, 1, 1};
  writer.WriteVector<uint32_t>(ids);
  writer.WriteVector<uint64_t>(wide);
  writer.WriteVector<float>(probs);
  writer.WriteVector<double>(exact);
  writer.WriteVector<uint8_t>(flags);

  BinaryReader reader(&stream);
  std::vector<uint32_t> ids2;
  std::vector<uint64_t> wide2;
  std::vector<float> probs2;
  std::vector<double> exact2;
  std::vector<uint8_t> flags2;
  ASSERT_TRUE(reader.ReadVector(&ids2, 100));
  ASSERT_TRUE(reader.ReadVector(&wide2, 100));
  ASSERT_TRUE(reader.ReadVector(&probs2, 100));
  ASSERT_TRUE(reader.ReadVector(&exact2, 100));
  ASSERT_TRUE(reader.ReadVector(&flags2, 100));
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(wide2, wide);
  EXPECT_EQ(probs2, probs);
  EXPECT_EQ(exact2, exact);
  EXPECT_EQ(flags2, flags);
}

// The encoding WriteVector must produce, assembled one element at a
// time: the u64 count, then each element's little-endian bytes (floats
// and doubles by their bit patterns).
template <typename T>
void AppendReference(const std::vector<T>& values, std::string* out) {
  const auto put = [out](uint64_t value, size_t width) {
    unsigned char buf[8];
    EncodeLe(value, width, buf);
    out->append(reinterpret_cast<const char*>(buf), width);
  };
  put(values.size(), 8);
  for (const T v : values) {
    if constexpr (std::is_same_v<T, float>) {
      put(std::bit_cast<uint32_t>(v), 4);
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<uint64_t>(v), 8);
    } else {
      put(static_cast<uint64_t>(v), sizeof(T));
    }
  }
}

TEST(BinaryWriterTest, VectorBytesMatchPerElementEncoding) {
  // A vector moves as one block where the host allows it: the bytes and
  // the running checksum must be the per-element encoding's, and the
  // largest vector spans several of the reader's growth steps.
  std::vector<uint32_t> ids(BinaryReader::kMaxReadStepBytes / 4 * 2 + 7);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  const std::vector<uint64_t> wide = {1ULL << 60, 3, UINT64_MAX};
  const std::vector<float> probs = {0.25f, -0.0f, 1e-40f};
  const std::vector<double> exact = {0.1, -2.5};
  const std::vector<uint8_t> flags = {0, 1, 255};
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteVector<uint32_t>(ids);
  writer.WriteVector<uint64_t>(wide);
  writer.WriteVector<float>(probs);
  writer.WriteVector<double>(exact);
  writer.WriteVector<uint8_t>(flags);
  std::string reference;
  AppendReference(ids, &reference);
  AppendReference(wide, &reference);
  AppendReference(probs, &reference);
  AppendReference(exact, &reference);
  AppendReference(flags, &reference);
  ASSERT_EQ(stream.str(), reference);
  Fnv1a hash;
  hash.Update(reference.data(), reference.size());
  EXPECT_EQ(writer.digest(), hash.digest());

  BinaryReader reader(&stream);
  std::vector<uint32_t> ids2;
  std::vector<uint64_t> wide2;
  ASSERT_TRUE(reader.ReadVector(&ids2, ids.size()));
  ASSERT_TRUE(reader.ReadVector(&wide2, 3));
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(wide2, wide);
}

TEST(BinaryReaderTest, HugeCountOverShortStreamFailsCleanly) {
  // A header that claims 2^31 u32 (8 GiB) followed by 8 bytes: the
  // read fails, and the buffer never grew past one step.
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(uint64_t{1} << 31);
  writer.WriteU64(0x0123456789abcdefULL);
  BinaryReader reader(&stream);
  std::vector<uint32_t> out;
  EXPECT_FALSE(reader.ReadVector(&out, uint64_t{1} << 31));
  EXPECT_FALSE(reader.ok());
  EXPECT_LE(out.capacity() * sizeof(uint32_t),
            BinaryReader::kMaxReadStepBytes);
}

TEST(BinaryReaderTest, VectorOverMaxElementsRejected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  const std::vector<uint32_t> ids = {1, 2, 3, 4};
  writer.WriteVector<uint32_t>(ids);

  BinaryReader reader(&stream);
  std::vector<uint32_t> out;
  EXPECT_FALSE(reader.ReadVector(&out, 3));
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryReaderTest, EmptyVectorRoundTrips) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteVector<uint32_t>(std::vector<uint32_t>{});
  BinaryReader reader(&stream);
  std::vector<uint32_t> out = {99};
  ASSERT_TRUE(reader.ReadVector(&out, 10));
  EXPECT_TRUE(out.empty());
}

TEST(BinaryReaderTest, EmptyStringRoundTrips) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteString("");
  BinaryReader reader(&stream);
  std::string out = "stale";
  ASSERT_TRUE(reader.ReadString(&out));
  EXPECT_TRUE(out.empty());
}

TEST(BinaryReaderTest, TruncatedStreamFails) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(5);

  BinaryReader reader(&stream);
  uint64_t value = 0;
  EXPECT_FALSE(reader.ReadU64(&value));  // only 4 bytes available
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryReaderTest, FailurePoisonsSubsequentReads) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU8(1);

  BinaryReader reader(&stream);
  uint64_t wide = 0;
  EXPECT_FALSE(reader.ReadU64(&wide));
  uint8_t narrow = 0;
  // A fresh reader could read the byte; a poisoned one must not.
  EXPECT_FALSE(reader.ReadU8(&narrow));
}

TEST(ChecksumTest, ValidFileVerifies) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(123);
  writer.WriteString("payload");
  writer.WriteChecksum();

  BinaryReader reader(&stream);
  uint64_t value = 0;
  std::string str;
  ASSERT_TRUE(reader.ReadU64(&value));
  ASSERT_TRUE(reader.ReadString(&str));
  EXPECT_TRUE(reader.VerifyChecksum());
}

TEST(ChecksumTest, FlippedBitDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(123);
  writer.WriteU64(456);
  writer.WriteChecksum();

  std::string bytes = stream.str();
  bytes[3] ^= 0x10;  // corrupt the payload, not the checksum
  std::stringstream corrupted(bytes);
  BinaryReader reader(&corrupted);
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(reader.ReadU64(&a));
  ASSERT_TRUE(reader.ReadU64(&b));
  EXPECT_FALSE(reader.VerifyChecksum());
}

TEST(ChecksumTest, TruncatedChecksumDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(123);
  writer.WriteChecksum();

  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 2);  // cut into the trailing checksum
  std::stringstream truncated(bytes);
  BinaryReader reader(&truncated);
  uint64_t value = 0;
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_FALSE(reader.VerifyChecksum());
}

TEST(ChecksumTest, WriterAndReaderDigestsAgree) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(77);
  writer.WriteString("abc");
  const uint64_t writer_digest = writer.digest();

  BinaryReader reader(&stream);
  uint32_t value = 0;
  std::string str;
  ASSERT_TRUE(reader.ReadU32(&value));
  ASSERT_TRUE(reader.ReadString(&str));
  EXPECT_EQ(reader.digest(), writer_digest);
}

}  // namespace
}  // namespace pitex
