#include "secureagg/mask.h"

#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace bcfl::secureagg {

namespace {

/// Gauge update threshold: tiny expansions would just report timer noise.
constexpr size_t kRateGaugeMinWords = 4096;

void ExpandInto(const std::array<uint8_t, crypto::ChaCha20::kKeySize>& key,
                uint64_t round, uint8_t domain, size_t length,
                std::vector<uint64_t>* out) {
  static auto& words =
      obs::MetricsRegistry::Global().GetCounter("secureagg.mask_words");
  static auto& rate = obs::MetricsRegistry::Global().GetGauge(
      "secureagg.mask_bytes_per_s");
  // Nonce = round (LE) || domain separator || zero padding.
  std::array<uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<size_t>(i)] = static_cast<uint8_t>(round >> (8 * i));
  }
  nonce[8] = domain;
  crypto::ChaCha20 cipher(key, nonce);
  out->resize(length);
  words.Add(length);
  Stopwatch timer;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // A ring element is the next 8 keystream bytes little-endian, which on
  // a little-endian host is exactly the in-memory uint64 representation —
  // so the batched block generator writes straight into the vector: 8
  // words per keystream block, no per-word calls or copies.
  const size_t full_blocks = length / 8;
  if (full_blocks > 0) {
    cipher.FillBlocks(reinterpret_cast<uint8_t*>(out->data()), full_blocks);
  }
  for (size_t i = full_blocks * 8; i < length; ++i) {
    (*out)[i] = cipher.NextU64();
  }
#else
  for (auto& v : *out) v = cipher.NextU64();
#endif
  if (length >= kRateGaugeMinWords) {
    const double s = timer.ElapsedSeconds();
    if (s > 0) rate.Set(static_cast<double>(length) * 8.0 / s);
  }
}

}  // namespace

void ExpandMaskInto(
    const std::array<uint8_t, crypto::ChaCha20::kKeySize>& pair_key,
    uint64_t round, size_t length, std::vector<uint64_t>* out) {
  ExpandInto(pair_key, round, /*domain=*/0x01, length, out);
}

void ExpandSelfMaskInto(
    const std::array<uint8_t, crypto::ChaCha20::kKeySize>& self_seed,
    uint64_t round, size_t length, std::vector<uint64_t>* out) {
  ExpandInto(self_seed, round, /*domain=*/0x02, length, out);
}

}  // namespace bcfl::secureagg
