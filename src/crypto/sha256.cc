#include "crypto/sha256.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define BCFL_SHA_HAVE_SHA_NI 1
#define BCFL_SHA_TARGET_SHA_NI __attribute__((target("sha,sse4.1")))
#include <immintrin.h>
#else
#define BCFL_SHA_HAVE_SHA_NI 0
#endif

namespace bcfl::crypto {

namespace {

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if BCFL_SHA_HAVE_SHA_NI
// Four rounds: adds their round constants to the schedule words `w`, and
// sha256rnds2 runs two rounds on each half.
BCFL_SHA_TARGET_SHA_NI inline __attribute__((always_inline)) void Rounds4(
    __m128i& abef, __m128i& cdgh, __m128i w, const uint32_t* k) {
  const __m128i msg = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
}

// The schedule words W[t..t+3] from the four groups before them.
BCFL_SHA_TARGET_SHA_NI inline __attribute__((always_inline)) __m128i
NextSchedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}
#endif

using BlocksFn = void (*)(uint32_t*, const uint8_t*, size_t);

// Picked once, on first use: a function-local static has no init-order
// hazard, even for a hash taken during another file's static init (hence
// the explicit __builtin_cpu_init, which may not have run yet then).
BlocksFn ActiveBlocks() {
#if BCFL_SHA_HAVE_SHA_NI
  static const BlocksFn kBlocks = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
               ? Sha256BlocksShaNi
               : Sha256BlocksScalar;
  }();
  return kBlocks;
#else
  return Sha256BlocksScalar;
#endif
}

}  // namespace

void Sha256BlocksScalar(uint32_t state[8], const uint8_t* blocks, size_t n) {
  for (; n > 0; --n, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(blocks[4 * i]) << 24 |
             static_cast<uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if BCFL_SHA_HAVE_SHA_NI
// Intel SHA Extensions (Gulley et al., 2013). sha256rnds2 keeps the eight
// working variables as two vectors, ABEF and CDGH, so the state is
// permuted into that layout once per call and back at the end.
BCFL_SHA_TARGET_SHA_NI void Sha256BlocksShaNi(uint32_t state[8],
                                              const uint8_t* blocks,
                                              size_t n) {
  // Byte-reverses each 32-bit word: the message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const uint32_t* k = kRoundConstants.data();

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks)), bswap);
    __m128i w1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16)), bswap);
    __m128i w2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32)), bswap);
    __m128i w3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48)), bswap);
    Rounds4(abef, cdgh, w0, k);
    Rounds4(abef, cdgh, w1, k + 4);
    Rounds4(abef, cdgh, w2, k + 8);
    Rounds4(abef, cdgh, w3, k + 12);
    for (int t = 16; t < 64; t += 4) {
      const __m128i w4 = NextSchedule(w0, w1, w2, w3);
      Rounds4(abef, cdgh, w4, k + t);
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = w4;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#else
void Sha256BlocksShaNi(uint32_t*, const uint8_t*, size_t) {
  // Never selected: Sha256Path() is "scalar" off x86.
  std::abort();
}
#endif

const char* Sha256Path() {
  return ActiveBlocks() == Sha256BlocksScalar ? "scalar" : "sha_ni";
}

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t size) {
  if (size == 0) return;
  total_len_ += size;
  if (buffer_len_ > 0) {
    const size_t take = std::min(size, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    size -= take;
    if (buffer_len_ < 64) return;
    ActiveBlocks()(state_.data(), buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the caller's buffer.
  const size_t blocks = size / 64;
  if (blocks > 0) {
    ActiveBlocks()(state_.data(), data, blocks);
    data += 64 * blocks;
    size -= 64 * blocks;
  }
  if (size > 0) {
    std::memcpy(buffer_, data, size);
    buffer_len_ = size;
  }
}

Digest Sha256::Finish() {
  // Append 0x80, zeros, then the 64-bit big-endian bit length: one block
  // if the tail leaves room for the 9 bytes, two otherwise.
  const uint64_t bit_len = total_len_ * 8;
  const size_t padded = buffer_len_ < 56 ? 64 : 128;
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_ + buffer_len_ + 1, 0, padded - 8 - buffer_len_ - 1);
  for (int i = 0; i < 8; ++i) {
    buffer_[padded - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ActiveBlocks()(state_.data(), buffer_, padded / 64);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const uint8_t* data, size_t size) {
  Sha256 hasher;
  hasher.Update(data, size);
  return hasher.Finish();
}

Digest Sha256::Hash(const Bytes& data) { return Hash(data.data(), data.size()); }

Digest Sha256::Hash(std::string_view data) {
  return Hash(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

std::string DigestToHex(const Digest& digest) {
  return ToHex(digest.data(), digest.size());
}

Bytes DigestToBytes(const Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

}  // namespace bcfl::crypto
