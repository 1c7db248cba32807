#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace bcfl::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4).
///
/// Implemented from scratch; verified in tests against the standard NIST
/// vectors ("abc", empty string, million 'a's, ...). Used for block and
/// transaction hashing, Merkle trees, key derivation and the Schnorr
/// challenge hash.
///
/// Whole 64-byte blocks go to one of two compressors, picked once per
/// process from the CPU's features (Sha256Path()): the Intel SHA
/// Extensions path where `__builtin_cpu_supports("sha")` holds, the
/// portable scalar path everywhere else. Both produce the same digests.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `size` bytes. `data` may be null when `size` is 0.
  void Update(const uint8_t* data, size_t size);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  /// Finishes the hash and returns the digest. The object must not be
  /// updated afterwards; call Reset() to reuse it.
  Digest Finish();

  /// Restores the initial state.
  void Reset();

  /// One-shot convenience.
  static Digest Hash(const uint8_t* data, size_t size);
  static Digest Hash(const Bytes& data);
  static Digest Hash(std::string_view data);

 private:
  std::array<uint32_t, 8> state_;
  // Two blocks, so Finish() can pad a tail of 56 or more bytes in place.
  uint8_t buffer_[128];
  size_t buffer_len_;
  uint64_t total_len_;
};

/// The two compressors behind Sha256, exposed so tests can check each one
/// directly. Each runs the SHA-256 compression function over `n`
/// consecutive 64-byte blocks starting at `blocks`, updating `state`.
/// Sha256BlocksShaNi may only be called where Sha256Path() is "sha_ni".
void Sha256BlocksScalar(uint32_t state[8], const uint8_t* blocks, size_t n);
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* blocks, size_t n);

/// "sha_ni" or "scalar": the compressor Sha256 uses on this machine.
const char* Sha256Path();

/// Lowercase hex encoding of a digest.
std::string DigestToHex(const Digest& digest);

/// Converts a digest to a Bytes vector.
Bytes DigestToBytes(const Digest& digest);

}  // namespace bcfl::crypto
