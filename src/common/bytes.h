#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace bcfl {

/// Byte sequence alias used across serialization, hashing and networking.
using Bytes = std::vector<uint8_t>;

/// Encodes `data` as lowercase hex.
std::string ToHex(const uint8_t* data, size_t size);
std::string ToHex(const Bytes& data);

/// Decodes a hex string (upper or lower case). Fails on odd length or
/// non-hex characters.
Result<Bytes> FromHex(std::string_view hex);

/// Little-endian binary writer with a growable buffer.
///
/// All on-chain payloads (transactions, model updates, contract state) are
/// serialized through this writer so that hashing and re-execution are
/// byte-deterministic across miners.
///
/// Bulk path: on a little-endian host a scalar is appended in one copy,
/// and a u64/double array (`WriteU64Vector`, `WriteDoubleVector`,
/// `WriteDoubles`, hence `ml::Matrix::Serialize`) is appended whole in
/// one copy after its prefix, since its in-memory bytes are already the
/// wire bytes. Big-endian hosts write byte by byte; both produce the
/// same bytes.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  /// Encodes the IEEE-754 bit pattern; exact round trip.
  void WriteDouble(double v);
  /// Length-prefixed (u32) raw bytes.
  void WriteBytes(const Bytes& data);
  void WriteBytes(const uint8_t* data, size_t size);
  /// Length-prefixed (u32) UTF-8 string.
  void WriteString(std::string_view s);
  /// Length-prefixed (u32) vector of doubles.
  void WriteDoubleVector(const std::vector<double>& v);
  /// Length-prefixed (u32) vector of u64.
  void WriteU64Vector(const std::vector<uint64_t>& v);
  /// `count` doubles with no length prefix (for a caller that frames
  /// them itself, as `ml::Matrix` does with its shape).
  void WriteDoubles(const double* data, size_t count);
  /// Raw bytes with no length prefix (for fixed-width fields).
  void WriteRaw(const uint8_t* data, size_t size);

  const Bytes& buffer() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  /// Appends `count` 8-byte words (u64 or double storage) little-endian.
  void WriteWords(const void* words, size_t count);

  Bytes buffer_;
};

/// Little-endian binary reader over a borrowed byte span.
///
/// Every read is bounds-checked and returns `Status`/`Result`; corrupt or
/// truncated payloads surface as `Corruption` instead of undefined
/// behaviour.
///
/// Bulk path: on a little-endian host a scalar is one copy, and a
/// u64/double array (`ReadU64Vector`, `ReadDoubleVector`, `ReadDoubles`,
/// hence `ml::Matrix::Deserialize`) is bounds-checked once for the whole
/// array, before anything is allocated for it, then copied into its
/// destination in one `memcpy`. Big-endian hosts assemble each element
/// byte by byte; both decode the same values and fail the same way.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& data)
      : ByteReader(data.data(), data.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<double> ReadDouble();
  /// Reads a u32 length prefix then that many bytes.
  Result<Bytes> ReadBytes();
  Result<std::string> ReadString();
  Result<std::vector<double>> ReadDoubleVector();
  Result<std::vector<uint64_t>> ReadU64Vector();
  /// Reads `count` doubles with no length prefix into `out[0..count)`.
  /// Fails with `Corruption`, writing nothing, when fewer than
  /// `8 * count` bytes remain.
  Status ReadDoubles(double* out, size_t count);
  /// Reads exactly `size` raw bytes (no prefix).
  Result<Bytes> ReadRaw(size_t size);

  /// Number of unread bytes.
  size_t remaining() const { return size_ - offset_; }
  /// True when all bytes were consumed — parsers should check this to
  /// reject payloads with trailing garbage.
  bool exhausted() const { return offset_ == size_; }

 private:
  Status CheckAvailable(size_t n) const;
  /// Copies `count` 8-byte words into `out` (u64 or double storage).
  /// The caller has checked that `8 * count` bytes remain.
  void ReadWords(void* out, size_t count);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace bcfl
