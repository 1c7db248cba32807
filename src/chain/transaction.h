#pragma once

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace bcfl::chain {

/// What a sender signs, apart from its own public key.
///
/// `contract` and `method` route the call inside the ContractHost;
/// `payload` is the method's serialized argument blob (e.g. a masked
/// model update); `nonce` is sender-chosen replay protection.
struct TxBody {
  std::string contract;
  std::string method;
  Bytes payload = {};  // May be left out of a designated initializer.
  uint64_t nonce = 0;
};

/// A signed smart-contract invocation, immutable once it exists.
///
/// The signature covers the body and the sender, so miners can verify
/// that a submission really originates from the claimed data owner
/// before executing it. The tx id (Hash()) is computed exactly once, when
/// the transaction is constructed — by Sign(), by Deserialize() or from
/// parts — and no accessor can change a field behind it, so every cache,
/// Merkle leaf and dedup key that the id feeds commits to the bytes it
/// was computed from. Copies and assignments carry the id along and
/// share the body, so every mempool and chain replica holds one copy of
/// a payload; a moved-from transaction may only be destroyed or assigned
/// to.
class Transaction {
 public:
  /// Signs `body` with `key`, whose public part becomes the sender. Draws
  /// one `scheme.Sign` nonce from `rng`.
  static Transaction Sign(TxBody body, const crypto::Schnorr& scheme,
                          const crypto::SchnorrKeyPair& key, Xoshiro256* rng);

  /// Assembles a transaction from its parts without checking the
  /// signature (the decoder's path; tests build tampered txs with it).
  Transaction(TxBody body, const crypto::UInt256& sender,
              const crypto::SchnorrSignature& signature);

  const TxBody& body() const { return *body_; }
  const std::string& contract() const { return body_->contract; }
  const std::string& method() const { return body_->method; }
  const Bytes& payload() const { return body_->payload; }
  uint64_t nonce() const { return body_->nonce; }
  const crypto::UInt256& sender() const { return sender_; }
  const crypto::SchnorrSignature& signature() const { return signature_; }

  /// Canonical bytes covered by the signature (body and sender).
  Bytes SigningBytes() const;

  /// SHA-256 over the signing bytes plus the signature: the tx id.
  const crypto::Digest& Hash() const { return hash_; }

  /// Verifies the signature against the sender.
  bool VerifySignature(const crypto::Schnorr& scheme) const;

  /// Full wire encoding (including the signature).
  Bytes Serialize() const;
  static Result<Transaction> Deserialize(const Bytes& bytes);

  bool operator==(const Transaction& other) const {
    return hash_ == other.hash_;
  }

 private:
  std::shared_ptr<const TxBody> body_;
  crypto::UInt256 sender_;
  crypto::SchnorrSignature signature_;
  crypto::Digest hash_;
};

}  // namespace bcfl::chain
