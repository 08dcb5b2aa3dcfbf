// Binary (de)serialization primitives: little-endian fixed-width integers,
// varints, floats, strings, and vectors, over a growable byte buffer.
//
// Wire format notes:
//  * all fixed-width integers are little-endian;
//  * unsigned varints use LEB128 (7 bits per byte, MSB = continuation);
//  * strings and byte blobs are length-prefixed with a varint;
//  * floats/doubles are bit-cast to their IEEE-754 representation.

#ifndef SIMCLOUD_COMMON_SERIALIZE_H_
#define SIMCLOUD_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace simcloud {

/// A non-owning run of bytes inside a buffer the caller keeps alive.
struct ByteView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Appends primitive values to a byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU16(uint16_t v) { WriteLittleEndian(v); }
  void WriteU32(uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(uint64_t v) { WriteLittleEndian(v); }
  void WriteI32(int32_t v) { WriteLittleEndian(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteLittleEndian(static_cast<uint64_t>(v)); }

  /// LEB128 unsigned varint (1-10 bytes).
  void WriteVarint(uint64_t v);

  void WriteFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU32(bits);
  }
  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// Varint length prefix followed by raw bytes.
  void WriteString(const std::string& s);
  void WriteBytes(const Bytes& b);
  void WriteBytes(ByteView b);
  /// Raw bytes with no length prefix (caller manages framing).
  void WriteRaw(const uint8_t* data, size_t len);

  /// Varint count followed by each float.
  void WriteFloatVector(const std::vector<float>& v);
  /// Varint count followed by each varint value.
  void WriteU32Vector(const std::vector<uint32_t>& v);

  /// Pre-allocates room for `n` more bytes (large messages — e.g. batch
  /// candidate responses — avoid repeated reallocation of a buffer that
  /// can reach tens of megabytes).
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const Bytes& buffer() const { return buf_; }
  Bytes TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void WriteLittleEndian(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Reads primitive values sequentially from a byte span. All reads are
/// bounds-checked and report Corruption on truncated input.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit BinaryReader(const Bytes& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<uint64_t> ReadVarint();
  Result<float> ReadFloat();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<Bytes> ReadBytes();
  /// Like ReadBytes, but returns a view into the input instead of a
  /// copy; the view is valid while the input buffer is.
  Result<ByteView> ReadBytesView();
  Result<std::vector<float>> ReadFloatVector();
  Result<std::vector<uint32_t>> ReadU32Vector();

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }

  /// Safe pre-allocation hint for a decoded element count: a hostile
  /// count cannot force an allocation larger than the input could
  /// possibly encode (>= 1 byte per element). Decode loops still stop at
  /// the real end of input.
  size_t BoundedCount(uint64_t count) const {
    return count < remaining() ? static_cast<size_t>(count) : remaining();
  }
  bool AtEnd() const { return pos_ == len_; }
  size_t position() const { return pos_; }

 private:
  Status Require(uint64_t n) {
    // Compared against what is left, not as pos_ + n: a hostile varint
    // length near 2^64 must not wrap past the check.
    if (n > len_ - pos_) {
      return Status::Corruption("truncated input: need " + std::to_string(n) +
                                " bytes at offset " + std::to_string(pos_));
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> ReadLittleEndian() {
    SIMCLOUD_RETURN_NOT_OK(Require(sizeof(T)));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace simcloud

#endif  // SIMCLOUD_COMMON_SERIALIZE_H_
