#include "src/util/serialize.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

namespace pitex {

void Fnv1a::Update(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = state_;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  state_ = h;
}

void EncodeLe(uint64_t value, size_t width, unsigned char* buf) {
  for (size_t i = 0; i < width; ++i) {
    buf[i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

uint64_t DecodeLe(const unsigned char* buf, size_t width) {
  uint64_t value = 0;
  for (size_t i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(buf[i]) << (8 * i);
  }
  return value;
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  hash_.Update(data, size);
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

void BinaryWriter::WriteU8(uint8_t value) { WriteBytes(&value, 1); }

void BinaryWriter::WriteU32(uint32_t value) {
  unsigned char buf[4];
  EncodeLe(value, 4, buf);
  WriteBytes(buf, 4);
}

void BinaryWriter::WriteU64(uint64_t value) {
  unsigned char buf[8];
  EncodeLe(value, 8, buf);
  WriteBytes(buf, 8);
}

void BinaryWriter::WriteF32(float value) {
  WriteU32(std::bit_cast<uint32_t>(value));
}

void BinaryWriter::WriteF64(double value) {
  WriteU64(std::bit_cast<uint64_t>(value));
}

void BinaryWriter::WriteString(std::string_view value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void BinaryWriter::WriteChecksum() {
  const uint64_t digest = hash_.digest();
  unsigned char buf[8];
  EncodeLe(digest, 8, buf);
  out_->write(reinterpret_cast<const char*>(buf), 8);
}

bool BinaryWriter::ok() const { return static_cast<bool>(*out_); }

bool BinaryReader::ReadBytes(void* data, size_t size) {
  if (failed_) return false;
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_->gcount()) != size) {
    failed_ = true;
    return false;
  }
  hash_.Update(data, size);
  return true;
}

bool BinaryReader::at_end_of_stream() const { return in_->eof(); }

bool BinaryReader::NoBytesLeft() {
  return in_->peek() == std::char_traits<char>::eof();
}

bool BinaryReader::ReadU8(uint8_t* value) { return ReadBytes(value, 1); }

bool BinaryReader::ReadU32(uint32_t* value) {
  unsigned char buf[4];
  if (!ReadBytes(buf, 4)) return false;
  *value = static_cast<uint32_t>(DecodeLe(buf, 4));
  return true;
}

bool BinaryReader::ReadU64(uint64_t* value) {
  unsigned char buf[8];
  if (!ReadBytes(buf, 8)) return false;
  *value = DecodeLe(buf, 8);
  return true;
}

bool BinaryReader::ReadF32(float* value) {
  uint32_t bits = 0;
  if (!ReadU32(&bits)) return false;
  *value = std::bit_cast<float>(bits);
  return true;
}

bool BinaryReader::ReadF64(double* value) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *value = std::bit_cast<double>(bits);
  return true;
}

bool BinaryReader::ReadString(std::string* value) {
  // Strings in index files are short (magic tags, dataset names); a huge
  // length here means the file is corrupt.
  constexpr uint64_t kMaxStringBytes = 1 << 20;
  return ReadString(value, kMaxStringBytes);
}

bool BinaryReader::ReadString(std::string* value, uint64_t max_bytes) {
  uint64_t size = 0;
  if (!ReadU64(&size)) return false;
  if (size > max_bytes) {
    failed_ = true;
    return false;
  }
  value->resize(size);
  return size == 0 || ReadBytes(value->data(), size);
}

bool BinaryReader::VerifyChecksum() {
  if (failed_) return false;
  const uint64_t expected = hash_.digest();  // digest before consuming it
  unsigned char buf[8];
  in_->read(reinterpret_cast<char*>(buf), 8);
  if (in_->gcount() != 8) {
    failed_ = true;
    return false;
  }
  if (DecodeLe(buf, 8) != expected) {
    failed_ = true;
    return false;
  }
  return true;
}

}  // namespace pitex
