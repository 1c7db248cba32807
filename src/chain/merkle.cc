#include "chain/merkle.h"

namespace bcfl::chain {

crypto::Digest MerkleTree::LeafHash(const crypto::Digest& data) {
  crypto::Sha256 hasher;
  uint8_t tag = 0x00;
  hasher.Update(&tag, 1);
  hasher.Update(data.data(), data.size());
  return hasher.Finish();
}

crypto::Digest MerkleTree::NodeHash(const crypto::Digest& left,
                                    const crypto::Digest& right) {
  crypto::Sha256 hasher;
  uint8_t tag = 0x01;
  hasher.Update(&tag, 1);
  hasher.Update(left.data(), left.size());
  hasher.Update(right.data(), right.size());
  return hasher.Finish();
}

MerkleTree::MerkleTree(const std::vector<crypto::Digest>& leaves)
    : num_leaves_(leaves.size()) {
  root_.fill(0);
  if (leaves.empty()) return;

  std::vector<crypto::Digest> level;
  level.reserve(leaves.size());
  for (const auto& leaf : leaves) level.push_back(LeafHash(leaf));
  levels_.push_back(std::move(level));

  while (levels_.back().size() > 1) {
    const std::vector<crypto::Digest>& prev = levels_.back();
    std::vector<crypto::Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t left = 0; left < prev.size(); left += 2) {
      size_t right = left + 1 < prev.size() ? left + 1 : left;
      next.push_back(NodeHash(prev[left], prev[right]));
    }
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

Result<std::vector<MerkleProofStep>> MerkleTree::Proof(size_t index) const {
  if (index >= num_leaves_) {
    return Status::OutOfRange("leaf index out of range");
  }
  std::vector<MerkleProofStep> proof;
  size_t pos = index;
  for (size_t depth = 0; depth + 1 < levels_.size(); ++depth) {
    const auto& level = levels_[depth];
    MerkleProofStep step;
    if (pos % 2 == 0) {
      // Sibling is on the right (or the duplicated self at the edge).
      step.sibling = (pos + 1 < level.size()) ? level[pos + 1] : level[pos];
      step.sibling_is_right = true;
    } else {
      step.sibling = level[pos - 1];
      step.sibling_is_right = false;
    }
    proof.push_back(step);
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const crypto::Digest& leaf,
                             const std::vector<MerkleProofStep>& proof,
                             const crypto::Digest& root) {
  crypto::Digest current = LeafHash(leaf);
  for (const auto& step : proof) {
    current = step.sibling_is_right ? NodeHash(current, step.sibling)
                                    : NodeHash(step.sibling, current);
  }
  return current == root;
}

}  // namespace bcfl::chain
