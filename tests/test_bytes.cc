#include "common/bytes.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"

namespace bcfl {
namespace {

/// Byte-at-a-time little-endian encoding: the codec's format, written
/// without its bulk copies.
void AppendLe(uint64_t v, int width, Bytes* out) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(HexTest, EncodesLowercase) {
  Bytes data = {0x00, 0xff, 0x0a, 0xb7};
  EXPECT_EQ(ToHex(data), "00ff0ab7");
}

TEST(HexTest, EmptyRoundTrip) {
  EXPECT_EQ(ToHex(Bytes{}), "");
  auto decoded = FromHex("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(HexTest, DecodesMixedCase) {
  auto decoded = FromHex("DeadBEEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(HexTest, RejectsOddLength) {
  EXPECT_TRUE(FromHex("abc").status().IsInvalidArgument());
}

TEST(HexTest, RejectsNonHexCharacters) {
  EXPECT_TRUE(FromHex("zz").status().IsInvalidArgument());
}

TEST(ByteWriterTest, ScalarRoundTrip) {
  ByteWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU16(0x1234);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteDouble(3.14159);

  ByteReader reader(writer.buffer());
  EXPECT_EQ(*reader.ReadU8(), 0xab);
  EXPECT_EQ(*reader.ReadU16(), 0x1234);
  EXPECT_EQ(*reader.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(*reader.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(*reader.ReadDouble(), 3.14159);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteWriterTest, DoubleRoundTripIsExact) {
  const double values[] = {0.0, -0.0, 1e-300, -1e300, 0.1,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  for (double v : values) {
    ByteWriter writer;
    writer.WriteDouble(v);
    ByteReader reader(writer.buffer());
    auto back = reader.ReadDouble();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::memcmp(&v, &*back, sizeof(double)), 0);
  }
}

TEST(ByteWriterTest, LengthPrefixedRoundTrip) {
  ByteWriter writer;
  writer.WriteBytes(Bytes{1, 2, 3});
  writer.WriteString("hello");
  writer.WriteDoubleVector({1.5, -2.5});
  writer.WriteU64Vector({7, 8, 9});

  ByteReader reader(writer.buffer());
  EXPECT_EQ(*reader.ReadBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadDoubleVector(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(*reader.ReadU64Vector(), (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteWriterTest, EmptyContainersRoundTrip) {
  ByteWriter writer;
  writer.WriteBytes(Bytes{});
  writer.WriteString("");
  writer.WriteDoubleVector({});
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(reader.ReadBytes()->empty());
  EXPECT_TRUE(reader.ReadString()->empty());
  EXPECT_TRUE(reader.ReadDoubleVector()->empty());
}

// Wire bytes pinned before the codec moved whole arrays at once.
TEST(ByteWriterTest, U64VectorBytesArePinned) {
  ByteWriter writer;
  writer.WriteU64Vector({0, 1, 0x0102030405060708ULL, UINT64_MAX});
  EXPECT_EQ(ToHex(writer.buffer()),
            "04000000"
            "0000000000000000"
            "0100000000000000"
            "0807060504030201"
            "ffffffffffffffff");
}

TEST(ByteWriterTest, DoubleVectorBytesArePinned) {
  ByteWriter writer;
  writer.WriteDoubleVector({-0.0, 1.5,
                            std::numeric_limits<double>::denorm_min(),
                            FromBits(0x7ff80000deadbeefULL)});
  EXPECT_EQ(ToHex(writer.buffer()),
            "04000000"
            "0000000000000080"
            "000000000000f83f"
            "0100000000000000"
            "efbeadde0000f87f");
}

// Every length 0..1024, written and read at an odd offset inside a
// larger buffer, against the byte-at-a-time format: the bulk copies may
// neither assume alignment nor touch a byte outside their own field.
TEST(ByteWriterTest, BulkVectorsMatchBytewiseCodecAtOddOffsets) {
  Xoshiro256 rng(23);
  for (size_t n = 0; n <= 1024; ++n) {
    std::vector<uint64_t> words(n);
    std::vector<double> doubles(n);
    for (auto& w : words) w = rng.Next();
    // Raw bit patterns: NaN payloads and signed zeros included.
    for (auto& d : doubles) d = FromBits(rng.Next());

    ByteWriter writer;
    writer.WriteU8(0xa5);
    writer.WriteU64Vector(words);
    writer.WriteDoubleVector(doubles);
    writer.WriteU8(0x5a);

    Bytes expected = {0xa5};
    AppendLe(n, 4, &expected);
    for (uint64_t w : words) AppendLe(w, 8, &expected);
    AppendLe(n, 4, &expected);
    for (double d : doubles) AppendLe(Bits(d), 8, &expected);
    expected.push_back(0x5a);
    ASSERT_EQ(writer.buffer(), expected) << "n = " << n;

    // Read the two vectors from offset 1, leaving the trailing byte out
    // of the reader's view.
    ByteReader reader(expected.data() + 1, expected.size() - 2);
    auto read_words = reader.ReadU64Vector();
    ASSERT_TRUE(read_words.ok()) << "n = " << n;
    EXPECT_EQ(*read_words, words) << "n = " << n;
    auto read_doubles = reader.ReadDoubleVector();
    ASSERT_TRUE(read_doubles.ok()) << "n = " << n;
    ASSERT_EQ(read_doubles->size(), n);
    const uint8_t* encoded = expected.data() + 1 + 4 + 8 * n + 4;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits((*read_doubles)[i]), LoadLe64(encoded + 8 * i))
          << "n = " << n << ", i = " << i;
    }
    EXPECT_TRUE(reader.exhausted()) << "n = " << n;
  }
}

TEST(ByteReaderTest, EveryTruncatedVectorIsCorruption) {
  ByteWriter words;
  words.WriteU64Vector({1, 2, 3, 0x0102030405060708ULL, UINT64_MAX});
  ByteWriter doubles;
  doubles.WriteDoubleVector({-0.0, 1.5, 2.25, -3.0, 1e300});
  for (size_t len = 0; len < words.size(); ++len) {
    ByteReader reader(words.buffer().data(), len);
    EXPECT_TRUE(reader.ReadU64Vector().status().IsCorruption())
        << "len = " << len;
  }
  for (size_t len = 0; len < doubles.size(); ++len) {
    ByteReader reader(doubles.buffer().data(), len);
    EXPECT_TRUE(reader.ReadDoubleVector().status().IsCorruption())
        << "len = " << len;
  }
}

TEST(ByteReaderTest, ReadDoublesChecksTheWholeCountFirst) {
  ByteWriter writer;
  writer.WriteDoubles(std::vector<double>{1.0, 2.0, 3.0}.data(), 3);
  ByteReader reader(writer.buffer());
  double out[4] = {-1.0, -1.0, -1.0, -1.0};
  EXPECT_TRUE(reader.ReadDoubles(out, 4).IsCorruption());
  // A count whose byte size wraps around size_t to 8 is refused too.
  EXPECT_TRUE(reader.ReadDoubles(out, SIZE_MAX / 8 + 2).IsCorruption());
  EXPECT_EQ(out[0], -1.0);  // Nothing written, nothing consumed.
  EXPECT_EQ(reader.remaining(), 24u);
  ASSERT_TRUE(reader.ReadDoubles(out, 3).ok());
  EXPECT_EQ(out[2], 3.0);
  EXPECT_EQ(out[3], -1.0);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteReaderTest, TruncatedScalarIsCorruption) {
  Bytes data = {0x01, 0x02};
  ByteReader reader(data);
  EXPECT_TRUE(reader.ReadU32().status().IsCorruption());
}

TEST(ByteReaderTest, TruncatedLengthPrefixedIsCorruption) {
  // Claims 100 bytes but provides 2.
  ByteWriter writer;
  writer.WriteU32(100);
  writer.WriteU16(0);
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(reader.ReadBytes().status().IsCorruption());
}

TEST(ByteReaderTest, HugeVectorLengthIsRejectedNotAllocated) {
  ByteWriter writer;
  writer.WriteU32(0xffffffffu);  // Absurd element count, no payload.
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(reader.ReadDoubleVector().status().IsCorruption());
  ByteReader reader2(writer.buffer());
  EXPECT_TRUE(reader2.ReadU64Vector().status().IsCorruption());
}

TEST(ByteReaderTest, RemainingAndExhausted) {
  ByteWriter writer;
  writer.WriteU32(5);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_FALSE(reader.exhausted());
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteReaderTest, ReadRawExactBytes) {
  Bytes data = {9, 8, 7, 6};
  ByteReader reader(data);
  auto first = reader.ReadRaw(2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, (Bytes{9, 8}));
  EXPECT_TRUE(reader.ReadRaw(3).status().IsCorruption());
}

}  // namespace
}  // namespace bcfl
