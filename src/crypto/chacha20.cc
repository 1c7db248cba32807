#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

namespace bcfl::crypto {

namespace {

#if defined(__GNUC__)
#define BCFL_CHACHA_ALWAYS_INLINE __attribute__((always_inline))
#else
#define BCFL_CHACHA_ALWAYS_INLINE
#endif

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define BCFL_CHACHA_HAVE_TARGET_CLONES 1
#define BCFL_CHACHA_TARGET_AVX2 __attribute__((target("avx2")))
#define BCFL_CHACHA_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define BCFL_CHACHA_HAVE_TARGET_CLONES 0
#endif

#if defined(__GNUC__)
// GNU vector extensions: element-wise +, ^, <<, >> compile directly to
// SIMD integer ops, sidestepping the auto-vectorizer (which refuses the
// equivalent lane loops because it cannot prove the rows distinct).
#define BCFL_CHACHA_HAVE_VECTOR_EXT 1
typedef uint32_t VecU32x4 __attribute__((vector_size(16)));
typedef uint32_t VecU32x8 __attribute__((vector_size(32)));
typedef uint32_t VecU32x16 __attribute__((vector_size(64)));
#else
#define BCFL_CHACHA_HAVE_VECTOR_EXT 0
#endif

inline uint32_t Rotl32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Single-block RFC 8439 core — the seed's scalar quarter-round, used
/// for the buffered path and as the portable batch fallback.
inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl32(d, 16);
  c += d; b ^= c; b = Rotl32(b, 12);
  a += b; d ^= a; d = Rotl32(d, 8);
  c += d; b ^= c; b = Rotl32(b, 7);
}

void BlockScalar(const std::array<uint32_t, 16>& state, uint8_t* out) {
  std::array<uint32_t, 16> x = state;
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    // Diagonal rounds.
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t word = x[i] + state[i];
    out[4 * i + 0] = static_cast<uint8_t>(word);
    out[4 * i + 1] = static_cast<uint8_t>(word >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(word >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(word >> 24);
  }
}

#if BCFL_CHACHA_HAVE_VECTOR_EXT

/// One ChaCha quarter-round applied to `L = sizeof(V) / 4` independent
/// blocks at once: every vector element belongs to a different block, so
/// the rotate never crosses lanes and each statement is one SIMD op.
template <typename V>
BCFL_CHACHA_ALWAYS_INLINE inline void QuarterRoundLanes(V& a, V& b, V& c,
                                                        V& d) {
  a += b; d ^= a; d = (d << 16) | (d >> 16);
  c += d; b ^= c; b = (b << 12) | (b >> 20);
  a += b; d ^= a; d = (d << 8) | (d >> 24);
  c += d; b ^= c; b = (b << 7) | (b >> 25);
}

/// Generates `L` consecutive RFC 8439 blocks (counters state[12] .. +L-1)
/// into out[0..64*L). Working state is interleaved word-major — x[i][l]
/// is word i of block l — so every round step touches whole vectors. The
/// byte stream is identical to running the single-block function L times
/// with incrementing counters.
template <typename V>
BCFL_CHACHA_ALWAYS_INLINE inline void BlocksLanes(
    const std::array<uint32_t, 16>& state, uint8_t* out) {
  constexpr size_t L = sizeof(V) / sizeof(uint32_t);
  V x[16];
  V feed[16] = {};
  // Every lane holds the same word except the block counter (word 12),
  // which counts up across lanes. Built in a plain array and copied in
  // whole: GCC 12 reports a write to one lane of a vector as a read of
  // an uninitialized value, even after the vector was zeroed.
  for (int i = 0; i < 16; ++i) {
    uint32_t lanes[L] = {};
    for (size_t l = 0; l < L; ++l) {
      lanes[l] = state[i] + (i == 12 ? static_cast<uint32_t>(l) : 0u);
    }
    std::memcpy(&feed[i], lanes, sizeof(V));
  }
  for (int i = 0; i < 16; ++i) x[i] = feed[i];
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    QuarterRoundLanes(x[0], x[4], x[8], x[12]);
    QuarterRoundLanes(x[1], x[5], x[9], x[13]);
    QuarterRoundLanes(x[2], x[6], x[10], x[14]);
    QuarterRoundLanes(x[3], x[7], x[11], x[15]);
    // Diagonal rounds.
    QuarterRoundLanes(x[0], x[5], x[10], x[15]);
    QuarterRoundLanes(x[1], x[6], x[11], x[12]);
    QuarterRoundLanes(x[2], x[7], x[8], x[13]);
    QuarterRoundLanes(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += feed[i];
  for (size_t l = 0; l < L; ++l) {
    uint8_t* b = out + 64 * l;
    for (int i = 0; i < 16; ++i) {
      const uint32_t word = x[i][l];
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
      std::memcpy(b + 4 * i, &word, 4);
#else
      b[4 * i + 0] = static_cast<uint8_t>(word);
      b[4 * i + 1] = static_cast<uint8_t>(word >> 8);
      b[4 * i + 2] = static_cast<uint8_t>(word >> 16);
      b[4 * i + 3] = static_cast<uint8_t>(word >> 24);
#endif
    }
  }
}

/// Batch generator over vector type V: L blocks per pass, scalar tail.
/// Advances state[12] past the blocks written.
template <typename V>
BCFL_CHACHA_ALWAYS_INLINE inline void GenerateBlocksLanes(
    std::array<uint32_t, 16>& state, uint8_t* out, size_t num_blocks) {
  constexpr size_t L = sizeof(V) / sizeof(uint32_t);
  while (num_blocks >= L) {
    BlocksLanes<V>(state, out);
    state[12] += static_cast<uint32_t>(L);
    out += L * 64;
    num_blocks -= L;
  }
  while (num_blocks > 0) {
    BlockScalar(state, out);
    state[12] += 1;
    out += 64;
    num_blocks -= 1;
  }
}

/// Baseline batch generator: 4 counters per pass (SSE2-width lanes on
/// x86-64, NEON-width elsewhere).
void GenerateBlocksBase(std::array<uint32_t, 16>& state, uint8_t* out,
                        size_t num_blocks) {
  GenerateBlocksLanes<VecU32x4>(state, out, num_blocks);
}

#if BCFL_CHACHA_HAVE_TARGET_CLONES
BCFL_CHACHA_TARGET_AVX2 void GenerateBlocksAvx2(std::array<uint32_t, 16>& state,
                                                uint8_t* out,
                                                size_t num_blocks) {
  GenerateBlocksLanes<VecU32x8>(state, out, num_blocks);
}

BCFL_CHACHA_TARGET_AVX512 void GenerateBlocksAvx512(
    std::array<uint32_t, 16>& state, uint8_t* out, size_t num_blocks) {
  GenerateBlocksLanes<VecU32x16>(state, out, num_blocks);
}

bool HasAvx2() {
  static const bool kHas = __builtin_cpu_supports("avx2") != 0;
  return kHas;
}

bool HasAvx512() {
  static const bool kHas = __builtin_cpu_supports("avx512f") != 0;
  return kHas;
}
#endif

#endif  // BCFL_CHACHA_HAVE_VECTOR_EXT

void GenerateBlocks(std::array<uint32_t, 16>& state, uint8_t* out,
                    size_t num_blocks) {
#if BCFL_CHACHA_HAVE_VECTOR_EXT
#if BCFL_CHACHA_HAVE_TARGET_CLONES
  if (HasAvx512()) {
    GenerateBlocksAvx512(state, out, num_blocks);
    return;
  }
  if (HasAvx2()) {
    GenerateBlocksAvx2(state, out, num_blocks);
    return;
  }
#endif
  GenerateBlocksBase(state, out, num_blocks);
#else
  while (num_blocks > 0) {
    BlockScalar(state, out);
    state[12] += 1;
    out += 64;
    num_blocks -= 1;
  }
#endif
}

}  // namespace

ChaCha20::ChaCha20(const std::array<uint8_t, kKeySize>& key,
                   const std::array<uint8_t, kNonceSize>& nonce,
                   uint32_t counter)
    : block_offset_(64) {
  // "expand 32-byte k" sigma constants.
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = LoadLe32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = LoadLe32(nonce.data() + 4 * i);
}

void ChaCha20::RefillBlock() {
  BlockScalar(state_, block_.data());
  state_[12] += 1;  // Block counter.
  block_offset_ = 0;
}

void ChaCha20::Keystream(uint8_t* out, size_t size) {
  // Drain the buffered partial block first.
  if (block_offset_ < 64) {
    size_t take = std::min<size_t>(size, 64 - block_offset_);
    std::memcpy(out, block_.data() + block_offset_, take);
    block_offset_ += take;
    out += take;
    size -= take;
  }
  // Whole blocks are generated straight into `out`, several counters per
  // pass; only a sub-block tail goes through the buffer.
  size_t blocks = size / 64;
  if (blocks > 0) {
    GenerateBlocks(state_, out, blocks);
    out += blocks * 64;
    size -= blocks * 64;
  }
  if (size > 0) {
    RefillBlock();
    std::memcpy(out, block_.data(), size);
    block_offset_ = size;
  }
}

Bytes ChaCha20::Keystream(size_t size) {
  Bytes out(size);
  Keystream(out.data(), size);
  return out;
}

void ChaCha20::FillBlocks(uint8_t* out, size_t num_blocks) {
  Keystream(out, num_blocks * 64);
}

void ChaCha20::Crypt(uint8_t* data, size_t size) {
  while (size > 0) {
    if (block_offset_ == 64) RefillBlock();
    size_t take = std::min<size_t>(size, 64 - block_offset_);
    for (size_t i = 0; i < take; ++i) data[i] ^= block_[block_offset_ + i];
    block_offset_ += take;
    data += take;
    size -= take;
  }
}

uint64_t ChaCha20::NextU64() {
  uint8_t raw[8];
  Keystream(raw, sizeof(raw));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(raw[i]) << (8 * i);
  return v;
}

ChaChaRng::ChaChaRng(const std::array<uint8_t, ChaCha20::kKeySize>& key,
                     uint64_t stream_id)
    : cipher_(key,
              [stream_id] {
                std::array<uint8_t, ChaCha20::kNonceSize> nonce{};
                for (int i = 0; i < 8; ++i) {
                  nonce[i] = static_cast<uint8_t>(stream_id >> (8 * i));
                }
                return nonce;
              }(),
              0) {}

uint64_t ChaChaRng::NextU64() { return cipher_.NextU64(); }

double ChaChaRng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

}  // namespace bcfl::crypto
