#pragma once

#include <vector>

#include "common/result.h"
#include "crypto/sha256.h"

namespace bcfl::chain {

/// One step of a Merkle inclusion proof.
struct MerkleProofStep {
  crypto::Digest sibling;
  bool sibling_is_right = false;  ///< Sibling concatenates on the right.
};

/// Binary Merkle tree over transaction hashes.
///
/// Block headers commit to their transaction list through the Merkle
/// root; light verification of "this masked update is in block h" is an
/// O(log n) proof. Odd levels duplicate the last node (Bitcoin-style).
/// Leaf and interior hashes are domain-separated to prevent second-
/// preimage splicing between levels.
class MerkleTree {
 public:
  /// Builds the tree, one LeafHash per leaf and one NodeHash per
  /// interior node; an empty leaf set yields the all-zero root.
  explicit MerkleTree(const std::vector<crypto::Digest>& leaves);

  const crypto::Digest& root() const { return root_; }
  size_t num_leaves() const { return num_leaves_; }

  /// Inclusion proof for the leaf at `index`.
  Result<std::vector<MerkleProofStep>> Proof(size_t index) const;

  /// Verifies an inclusion proof against a root.
  static bool VerifyProof(const crypto::Digest& leaf,
                          const std::vector<MerkleProofStep>& proof,
                          const crypto::Digest& root);

  /// Hash of a leaf (domain-separated).
  static crypto::Digest LeafHash(const crypto::Digest& data);
  /// Hash of an interior node from its two children.
  static crypto::Digest NodeHash(const crypto::Digest& left,
                                 const crypto::Digest& right);

 private:
  /// levels_[0] = hashed leaves, levels_.back() = {root}.
  std::vector<std::vector<crypto::Digest>> levels_;
  crypto::Digest root_;
  size_t num_leaves_;
};

}  // namespace bcfl::chain
