#include "common/bytes.h"

namespace bcfl {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Writes `v` little-endian into `out[0, sizeof(T))`.
template <typename T>
void StoreLe(T v, uint8_t* out) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(out, &v, sizeof(T));
#else
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
#endif
}

/// Reads a little-endian `T` from `in[0, sizeof(T))`.
template <typename T>
T LoadLe(const uint8_t* in) {
  T v = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(&v, in, sizeof(T));
#else
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(in[i]) << (8 * i));
  }
#endif
  return v;
}

}  // namespace

std::string ToHex(const uint8_t* data, size_t size) {
  std::string out;
  out.reserve(size * 2);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string ToHex(const Bytes& data) { return ToHex(data.data(), data.size()); }

Result<Bytes> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void ByteWriter::WriteU16(uint16_t v) {
  uint8_t le[sizeof(v)];
  StoreLe(v, le);
  WriteRaw(le, sizeof(le));
}

void ByteWriter::WriteU32(uint32_t v) {
  uint8_t le[sizeof(v)];
  StoreLe(v, le);
  WriteRaw(le, sizeof(le));
}

void ByteWriter::WriteU64(uint64_t v) {
  uint8_t le[sizeof(v)];
  StoreLe(v, le);
  WriteRaw(le, sizeof(le));
}

void ByteWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteBytes(const Bytes& data) {
  WriteBytes(data.data(), data.size());
}

void ByteWriter::WriteBytes(const uint8_t* data, size_t size) {
  WriteU32(static_cast<uint32_t>(size));
  WriteRaw(data, size);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void ByteWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  WriteWords(v.data(), v.size());
}

void ByteWriter::WriteU64Vector(const std::vector<uint64_t>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  WriteWords(v.data(), v.size());
}

void ByteWriter::WriteDoubles(const double* data, size_t count) {
  WriteWords(data, count);
}

void ByteWriter::WriteRaw(const uint8_t* data, size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

void ByteWriter::WriteWords(const void* words, size_t count) {
  // An empty vector's data() may be null: copy nothing from it.
  if (count == 0) return;
  static_assert(sizeof(uint64_t) == sizeof(double));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The in-memory bytes of a u64 or double array are its wire bytes.
  WriteRaw(static_cast<const uint8_t*>(words), count * 8);
#else
  const auto* bytes = static_cast<const uint8_t*>(words);
  for (size_t i = 0; i < count; ++i) {
    uint64_t w;
    std::memcpy(&w, bytes + 8 * i, sizeof(w));
    WriteU64(w);
  }
#endif
}

Status ByteReader::CheckAvailable(size_t n) const {
  if (size_ - offset_ < n) {
    return Status::Corruption("truncated payload: need " + std::to_string(n) +
                              " bytes, have " +
                              std::to_string(size_ - offset_));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::ReadU8() {
  BCFL_RETURN_IF_ERROR(CheckAvailable(1));
  return data_[offset_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  BCFL_RETURN_IF_ERROR(CheckAvailable(2));
  const auto v = LoadLe<uint16_t>(data_ + offset_);
  offset_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  BCFL_RETURN_IF_ERROR(CheckAvailable(4));
  const auto v = LoadLe<uint32_t>(data_ + offset_);
  offset_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  BCFL_RETURN_IF_ERROR(CheckAvailable(8));
  const auto v = LoadLe<uint64_t>(data_ + offset_);
  offset_ += 8;
  return v;
}

Result<double> ByteReader::ReadDouble() {
  BCFL_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<Bytes> ByteReader::ReadBytes() {
  BCFL_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
  return ReadRaw(size);
}

Result<std::string> ByteReader::ReadString() {
  BCFL_ASSIGN_OR_RETURN(Bytes raw, ReadBytes());
  return std::string(raw.begin(), raw.end());
}

Result<std::vector<double>> ByteReader::ReadDoubleVector() {
  BCFL_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
  BCFL_RETURN_IF_ERROR(CheckAvailable(static_cast<size_t>(size) * 8));
  std::vector<double> out(size);
  ReadWords(out.data(), size);
  return out;
}

Result<std::vector<uint64_t>> ByteReader::ReadU64Vector() {
  BCFL_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
  BCFL_RETURN_IF_ERROR(CheckAvailable(static_cast<size_t>(size) * 8));
  std::vector<uint64_t> out(size);
  ReadWords(out.data(), size);
  return out;
}

Status ByteReader::ReadDoubles(double* out, size_t count) {
  // Compared as count against remaining/8: count * 8 could wrap.
  if (count > remaining() / 8) {
    return Status::Corruption("truncated payload: need " +
                              std::to_string(count) + " doubles, have " +
                              std::to_string(remaining()) + " bytes");
  }
  ReadWords(out, count);
  return Status::OK();
}

Result<Bytes> ByteReader::ReadRaw(size_t size) {
  BCFL_RETURN_IF_ERROR(CheckAvailable(size));
  Bytes out(data_ + offset_, data_ + offset_ + size);
  offset_ += size;
  return out;
}

void ByteReader::ReadWords(void* out, size_t count) {
  // An empty destination's data() may be null: copy nothing into it.
  if (count == 0) return;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(out, data_ + offset_, count * 8);
#else
  auto* bytes = static_cast<uint8_t*>(out);
  for (size_t i = 0; i < count; ++i) {
    const auto w = LoadLe<uint64_t>(data_ + offset_ + 8 * i);
    std::memcpy(bytes + 8 * i, &w, sizeof(w));
  }
#endif
  offset_ += count * 8;
}

}  // namespace bcfl
