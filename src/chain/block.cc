#include "chain/block.h"

#include "chain/state.h"

namespace bcfl::chain {

Bytes BlockHeader::Serialize() const {
  ByteWriter writer;
  writer.WriteU64(height);
  writer.WriteRaw(prev_hash.data(), prev_hash.size());
  writer.WriteRaw(merkle_root.data(), merkle_root.size());
  writer.WriteRaw(state_root.data(), state_root.size());
  writer.WriteU64(timestamp_us);
  writer.WriteU32(proposer);
  return writer.Take();
}

Result<BlockHeader> BlockHeader::Deserialize(ByteReader* reader) {
  BlockHeader header;
  BCFL_ASSIGN_OR_RETURN(header.height, reader->ReadU64());
  BCFL_ASSIGN_OR_RETURN(Bytes prev, reader->ReadRaw(32));
  std::copy(prev.begin(), prev.end(), header.prev_hash.begin());
  BCFL_ASSIGN_OR_RETURN(Bytes merkle, reader->ReadRaw(32));
  std::copy(merkle.begin(), merkle.end(), header.merkle_root.begin());
  BCFL_ASSIGN_OR_RETURN(Bytes state, reader->ReadRaw(32));
  std::copy(state.begin(), state.end(), header.state_root.begin());
  BCFL_ASSIGN_OR_RETURN(header.timestamp_us, reader->ReadU64());
  BCFL_ASSIGN_OR_RETURN(header.proposer, reader->ReadU32());
  return header;
}

crypto::Digest BlockHeader::Hash() const {
  return crypto::Sha256::Hash(Serialize());
}

crypto::Digest Block::ComputeMerkleRoot() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(txs.size());
  for (const Transaction& tx : txs) leaves.push_back(tx.Hash());
  return MerkleTree(leaves).root();
}

bool Block::MerkleRootMatchesBody() const {
  return header.merkle_root == ComputeMerkleRoot();
}

Bytes Block::Serialize() const {
  ByteWriter writer;
  Bytes header_bytes = header.Serialize();
  writer.WriteBytes(header_bytes);
  writer.WriteU32(static_cast<uint32_t>(txs.size()));
  for (const auto& tx : txs) writer.WriteBytes(tx.Serialize());
  return writer.Take();
}

Result<Block> Block::Deserialize(const Bytes& bytes) {
  ByteReader reader(bytes);
  Block block;
  BCFL_ASSIGN_OR_RETURN(Bytes header_bytes, reader.ReadBytes());
  ByteReader header_reader(header_bytes);
  BCFL_ASSIGN_OR_RETURN(block.header,
                        BlockHeader::Deserialize(&header_reader));
  BCFL_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  // Each transaction needs at least its 4-byte length prefix; a count
  // beyond that is a corrupt (or hostile) length field — reject before
  // reserving memory for it.
  if (static_cast<uint64_t>(count) * 4 > reader.remaining()) {
    return Status::Corruption("transaction count exceeds payload");
  }
  block.txs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BCFL_ASSIGN_OR_RETURN(Bytes tx_bytes, reader.ReadBytes());
    BCFL_ASSIGN_OR_RETURN(Transaction tx, Transaction::Deserialize(tx_bytes));
    block.txs.push_back(std::move(tx));
  }
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes after block");
  }
  return block;
}

Block MakeGenesisBlock() {
  Block genesis;
  genesis.header.height = 0;
  genesis.header.prev_hash.fill(0);
  genesis.header.merkle_root = genesis.ComputeMerkleRoot();
  genesis.header.state_root = ContractState().StateRoot();
  genesis.header.timestamp_us = 0;
  genesis.header.proposer = 0;
  return genesis;
}

}  // namespace bcfl::chain
