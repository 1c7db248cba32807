#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/chacha20.h"

namespace bcfl::secureagg {

/// Deterministic mask expansion — the paper's `PRNG(g^ab, r) -> m_ab^r`.
///
/// Expands a 32-byte pairwise key and an FL round number into `length`
/// ring elements via ChaCha20 (key = pairwise key, nonce = round). Both
/// endpoints of a pair derive identical masks; one adds, one subtracts,
/// so the pair contributes zero to the within-group sum. `out` is resized
/// to `length` (keeping its capacity across rounds) and overwritten, so
/// the round engine's per-owner scratch can mask every round without
/// reallocating mask buffers.
void ExpandMaskInto(
    const std::array<uint8_t, crypto::ChaCha20::kKeySize>& pair_key,
    uint64_t round, size_t length, std::vector<uint64_t>* out);

/// Self-mask expansion for the double-masking variant (Bonawitz et al.),
/// into `out` like ExpandMaskInto: each participant additionally adds a
/// private mask derived from its own seed so that revealing pairwise keys
/// of dropped users never exposes a survivor's plain update. A separate
/// nonce domain keeps it apart from every pairwise mask.
void ExpandSelfMaskInto(
    const std::array<uint8_t, crypto::ChaCha20::kKeySize>& self_seed,
    uint64_t round, size_t length, std::vector<uint64_t>* out);

}  // namespace bcfl::secureagg
