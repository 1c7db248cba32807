#include "chain/transaction.h"

namespace bcfl::chain {

namespace {

/// Writes the signed fields in wire order. The wire encoding appends the
/// length-prefixed signature; the tx id hashes the raw signature after
/// these bytes.
void WriteSignedFields(const TxBody& body, const crypto::UInt256& sender,
                       ByteWriter* writer) {
  writer->WriteString(body.contract);
  writer->WriteString(body.method);
  writer->WriteBytes(body.payload);
  writer->WriteBytes(sender.ToBytes());
  writer->WriteU64(body.nonce);
}

}  // namespace

Transaction Transaction::Sign(TxBody body, const crypto::Schnorr& scheme,
                              const crypto::SchnorrKeyPair& key,
                              Xoshiro256* rng) {
  ByteWriter signing;
  WriteSignedFields(body, key.public_key, &signing);
  crypto::SchnorrSignature signature = scheme.Sign(key, signing.Take(), rng);
  return Transaction(std::move(body), key.public_key, signature);
}

Transaction::Transaction(TxBody body, const crypto::UInt256& sender,
                         const crypto::SchnorrSignature& signature)
    : body_(std::make_shared<const TxBody>(std::move(body))),
      sender_(sender),
      signature_(signature) {
  crypto::Sha256 hasher;
  hasher.Update(SigningBytes());
  hasher.Update(signature_.ToBytes());
  hash_ = hasher.Finish();
}

Bytes Transaction::SigningBytes() const {
  ByteWriter writer;
  WriteSignedFields(*body_, sender_, &writer);
  return writer.Take();
}

bool Transaction::VerifySignature(const crypto::Schnorr& scheme) const {
  return scheme.Verify(sender_, SigningBytes(), signature_);
}

Bytes Transaction::Serialize() const {
  ByteWriter writer;
  WriteSignedFields(*body_, sender_, &writer);
  writer.WriteBytes(signature_.ToBytes());
  return writer.Take();
}

Result<Transaction> Transaction::Deserialize(const Bytes& bytes) {
  ByteReader reader(bytes);
  TxBody body;
  BCFL_ASSIGN_OR_RETURN(body.contract, reader.ReadString());
  BCFL_ASSIGN_OR_RETURN(body.method, reader.ReadString());
  BCFL_ASSIGN_OR_RETURN(body.payload, reader.ReadBytes());
  BCFL_ASSIGN_OR_RETURN(Bytes sender_bytes, reader.ReadBytes());
  BCFL_ASSIGN_OR_RETURN(crypto::UInt256 sender,
                        crypto::UInt256::FromBytes(sender_bytes));
  BCFL_ASSIGN_OR_RETURN(body.nonce, reader.ReadU64());
  BCFL_ASSIGN_OR_RETURN(Bytes sig_bytes, reader.ReadBytes());
  BCFL_ASSIGN_OR_RETURN(crypto::SchnorrSignature signature,
                        crypto::SchnorrSignature::FromBytes(sig_bytes));
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes after transaction");
  }
  return Transaction(std::move(body), sender, signature);
}

}  // namespace bcfl::chain
