#include "common/serialize.h"

#include <bit>
#include <limits>

namespace simcloud {

namespace {
// The wire format is little-endian IEEE-754, which is the in-memory
// layout of float on little-endian hosts: there, float vectors move as
// one memcpy. Big-endian hosts keep the per-element byte swap.
static_assert(std::numeric_limits<float>::is_iec559 && sizeof(float) == 4);
constexpr bool kFloatsAreWireOrder =
    std::endian::native == std::endian::little;
}  // namespace

void BinaryWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteBytes(const Bytes& b) {
  WriteVarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::WriteBytes(ByteView b) {
  WriteVarint(b.size);
  buf_.insert(buf_.end(), b.data, b.data + b.size);
}

void BinaryWriter::WriteRaw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteVarint(v.size());
  if constexpr (kFloatsAreWireOrder) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(v.data());
    buf_.insert(buf_.end(), bytes, bytes + v.size() * sizeof(float));
  } else {
    for (float f : v) WriteFloat(f);
  }
}

void BinaryWriter::WriteU32Vector(const std::vector<uint32_t>& v) {
  WriteVarint(v.size());
  for (uint32_t x : v) WriteVarint(x);
}

Result<uint8_t> BinaryReader::ReadU8() { return ReadLittleEndian<uint8_t>(); }
Result<uint16_t> BinaryReader::ReadU16() { return ReadLittleEndian<uint16_t>(); }
Result<uint32_t> BinaryReader::ReadU32() { return ReadLittleEndian<uint32_t>(); }
Result<uint64_t> BinaryReader::ReadU64() { return ReadLittleEndian<uint64_t>(); }

Result<int32_t> BinaryReader::ReadI32() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
  return static_cast<int32_t>(v);
}

Result<int64_t> BinaryReader::ReadI64() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<uint64_t> BinaryReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) return Status::Corruption("varint too long");
    SIMCLOUD_ASSIGN_OR_RETURN(uint8_t byte, ReadU8());
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<float> BinaryReader::ReadFloat() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t bits, ReadU32());
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

Result<double> BinaryReader::ReadDouble() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<bool> BinaryReader::ReadBool() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint8_t b, ReadU8());
  if (b > 1) return Status::Corruption("invalid bool byte");
  return b == 1;
}

Result<std::string> BinaryReader::ReadString() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  SIMCLOUD_RETURN_NOT_OK(Require(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Bytes> BinaryReader::ReadBytes() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  SIMCLOUD_RETURN_NOT_OK(Require(n));
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

Result<ByteView> BinaryReader::ReadBytesView() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  SIMCLOUD_RETURN_NOT_OK(Require(n));
  const ByteView view{data_ + pos_, static_cast<size_t>(n)};
  pos_ += n;
  return view;
}

Result<std::vector<float>> BinaryReader::ReadFloatVector() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining() / sizeof(float)) {
    return Status::Corruption("float vector length exceeds remaining input");
  }
  std::vector<float> v(n);
  if constexpr (kFloatsAreWireOrder) {
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
  } else {
    for (float& f : v) {
      SIMCLOUD_ASSIGN_OR_RETURN(f, ReadFloat());
    }
  }
  return v;
}

Result<std::vector<uint32_t>> BinaryReader::ReadU32Vector() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining()) {
    return Status::Corruption("u32 vector length exceeds remaining input");
  }
  std::vector<uint32_t> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t x, ReadVarint());
    if (x > UINT32_MAX) return Status::Corruption("u32 vector element overflow");
    v.push_back(static_cast<uint32_t>(x));
  }
  return v;
}

}  // namespace simcloud
