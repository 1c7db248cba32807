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
class Sha256 {
 public:
  Sha256();

  /// Absorbs `size` bytes.
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
  void ProcessBlock(const uint8_t block[64]);

  std::array<uint32_t, 8> state_;
  uint8_t buffer_[64];
  size_t buffer_len_;
  uint64_t total_len_;
};

/// Lowercase hex encoding of a digest.
std::string DigestToHex(const Digest& digest);

/// Converts a digest to a Bytes vector.
Bytes DigestToBytes(const Digest& digest);

}  // namespace bcfl::crypto
