#include "chain/merkle.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace bcfl::chain {
namespace {

crypto::Digest D(uint8_t fill) {
  crypto::Digest d;
  d.fill(fill);
  return d;
}

std::vector<crypto::Digest> RandomLeaves(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<crypto::Digest> leaves(n);
  for (auto& leaf : leaves) {
    for (auto& byte : leaf) byte = static_cast<uint8_t>(rng.Next());
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.root(), D(0));
  EXPECT_EQ(tree.num_leaves(), 0u);
  EXPECT_TRUE(tree.Proof(0).status().IsOutOfRange());
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  crypto::Digest leaf = D(7);
  MerkleTree tree({leaf});
  EXPECT_EQ(tree.root(), MerkleTree::LeafHash(leaf));
}

TEST(MerkleTest, RootDependsOnEveryLeaf) {
  auto leaves = RandomLeaves(8, 1);
  MerkleTree original(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto tampered = leaves;
    tampered[i][0] ^= 1;
    EXPECT_NE(MerkleTree(tampered).root(), original.root()) << "leaf " << i;
  }
}

TEST(MerkleTest, RootDependsOnOrder) {
  auto leaves = RandomLeaves(4, 2);
  auto swapped = leaves;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(MerkleTree(leaves).root(), MerkleTree(swapped).root());
}

TEST(MerkleTest, LeafAndNodeHashesAreDomainSeparated) {
  // A leaf hash must never equal an interior hash of the same bytes.
  crypto::Digest a = D(1), b = D(2);
  EXPECT_NE(MerkleTree::LeafHash(a), MerkleTree::NodeHash(a, b));
}

TEST(MerkleTest, OddCountDuplicatesLastNodeBitcoinStyle) {
  // root([a,b,c]) must be Node(Node(L(a),L(b)), Node(L(c),L(c))): the
  // unpaired node at each level is hashed with a copy of itself.
  crypto::Digest a = D(1), b = D(2), c = D(3);
  MerkleTree tree({a, b, c});
  crypto::Digest expected = MerkleTree::NodeHash(
      MerkleTree::NodeHash(MerkleTree::LeafHash(a), MerkleTree::LeafHash(b)),
      MerkleTree::NodeHash(MerkleTree::LeafHash(c), MerkleTree::LeafHash(c)));
  EXPECT_EQ(tree.root(), expected);
}

class MerkleProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleProofTest, EveryLeafProves) {
  size_t n = GetParam();
  auto leaves = RandomLeaves(n, 3 + n);
  MerkleTree tree(leaves);
  for (size_t i = 0; i < n; ++i) {
    auto proof = tree.Proof(i);
    ASSERT_TRUE(proof.ok()) << "leaf " << i;
    EXPECT_TRUE(MerkleTree::VerifyProof(leaves[i], *proof, tree.root()))
        << "leaf " << i;
  }
}

TEST_P(MerkleProofTest, WrongLeafFailsProof) {
  size_t n = GetParam();
  auto leaves = RandomLeaves(n, 100 + n);
  MerkleTree tree(leaves);
  auto proof = tree.Proof(0);
  ASSERT_TRUE(proof.ok());
  crypto::Digest forged = leaves[0];
  forged[5] ^= 0xff;
  EXPECT_FALSE(MerkleTree::VerifyProof(forged, *proof, tree.root()));
}

// Odd sizes exercise the duplicate-last-node path.
INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33));

TEST(MerkleProofTest, TamperedProofStepFails) {
  auto leaves = RandomLeaves(8, 4);
  MerkleTree tree(leaves);
  auto proof = tree.Proof(3);
  ASSERT_TRUE(proof.ok());
  (*proof)[1].sibling[0] ^= 1;
  EXPECT_FALSE(MerkleTree::VerifyProof(leaves[3], *proof, tree.root()));
}

TEST(MerkleProofTest, ProofAgainstWrongRootFails) {
  auto leaves = RandomLeaves(8, 5);
  MerkleTree tree(leaves);
  auto proof = tree.Proof(2);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::VerifyProof(leaves[2], *proof, D(0xaa)));
}

TEST(MerkleProofTest, ProofSplicedFromAnotherLeafFails) {
  auto leaves = RandomLeaves(8, 79);
  MerkleTree tree(leaves);
  auto proof = tree.Proof(2);
  ASSERT_TRUE(proof.ok());
  // A valid proof for leaf 2 must not authenticate leaf 3.
  EXPECT_FALSE(MerkleTree::VerifyProof(leaves[3], *proof, tree.root()));
}

TEST(MerkleProofTest, InteriorNodePresentedAsLeafFails) {
  auto leaves = RandomLeaves(4, 80);
  MerkleTree tree(leaves);
  // Splice attack: claim the parent of leaves 0/1 is itself a leaf and
  // present the (otherwise valid) upper suffix of leaf 0's proof. The
  // 0x00/0x01 domain-separation tags must make this fail.
  crypto::Digest interior = MerkleTree::NodeHash(
      MerkleTree::LeafHash(leaves[0]), MerkleTree::LeafHash(leaves[1]));
  auto proof = tree.Proof(0);
  ASSERT_TRUE(proof.ok());
  std::vector<MerkleProofStep> upper(proof->begin() + 1, proof->end());
  EXPECT_FALSE(MerkleTree::VerifyProof(interior, upper, tree.root()));
}

TEST(MerkleProofTest, ProofLengthIsLogarithmic) {
  auto leaves = RandomLeaves(16, 6);
  MerkleTree tree(leaves);
  auto proof = tree.Proof(0);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->size(), 4u);  // log2(16).
}

}  // namespace
}  // namespace bcfl::chain
