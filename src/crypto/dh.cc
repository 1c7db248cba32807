#include "crypto/dh.h"

namespace bcfl::crypto {

namespace {

std::string LimbKey(const UInt256& v) {
  std::string key(32, '\0');
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = v.limb(i);
    for (int b = 0; b < 8; ++b) {
      key[static_cast<size_t>(i * 8 + b)] =
          static_cast<char>(limb >> (b * 8));
    }
  }
  return key;
}

}  // namespace

GroupParams GroupParams::Default() {
  // p = 2^255 - 19, little-endian limbs.
  UInt256 p(0xffffffffffffffedULL, 0xffffffffffffffffULL,
            0xffffffffffffffffULL, 0x7fffffffffffffffULL);
  return GroupParams{p, UInt256(2)};
}

GroupContext::GroupContext(const GroupParams& params)
    : params_(params),
      mont_(std::make_unique<Montgomery>(params.p)),
      g_table_(std::make_unique<FixedBaseTable>(*mont_, params.g)) {}

std::shared_ptr<const GroupContext> GroupContext::Get(
    const GroupParams& params) {
  // Leaked singleton registry: contexts live for the process, so raw
  // FixedBaseTable pointers handed out under shard locks stay valid.
  static std::mutex* mu = new std::mutex;
  static auto* registry =
      new std::unordered_map<std::string,
                             std::shared_ptr<const GroupContext>>;
  std::string key = LimbKey(params.p) + LimbKey(params.g);
  std::lock_guard<std::mutex> lock(*mu);
  auto& slot = (*registry)[key];
  if (slot == nullptr) {
    slot = std::shared_ptr<const GroupContext>(new GroupContext(params));
  }
  return slot;
}

UInt256 GroupContext::PowG(const UInt256& exp) const {
  return g_table_->Pow(exp);
}

UInt256 GroupContext::PowBase(const UInt256& base, const UInt256& exp) const {
  return mont_->FromMont(PowBaseMont(base, exp));
}

bool GroupContext::VerifyGsEq(const UInt256& s, const UInt256& r,
                              const UInt256& base, const UInt256& e) const {
  UInt256 lhs = g_table_->PowMont(s);
  UInt256 rhs = mont_->Mul(mont_->ToMont(r), PowBaseMont(base, e));
  return lhs == rhs;
}

UInt256 GroupContext::PowBaseMont(const UInt256& base,
                                  const UInt256& exp) const {
  std::string key = LimbKey(base);
  Shard& shard = shards_[base.limb(0) % kShards];
  const FixedBaseTable* table = nullptr;
  bool build = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      KeyEntry& entry = it->second;
      ++entry.uses;
      if (entry.table != nullptr) {
        table = entry.table.get();
      } else if (entry.uses >= 2) {
        // Second sighting: the base is hot enough to earn a table.
        build = true;
      }
    } else if (shard.entries.size() < kMaxKeysPerShard) {
      shard.entries[key].uses = 1;
    }
  }
  if (build) {
    // Built outside the lock (~1k multiplies); a racing thread may build
    // a duplicate, and the first install wins.
    auto built = std::make_unique<FixedBaseTable>(*mont_, base);
    std::lock_guard<std::mutex> lock(shard.mu);
    KeyEntry& entry = shard.entries[key];
    if (entry.table == nullptr) entry.table = std::move(built);
    table = entry.table.get();
  }
  // Entries are never erased, so `table` outlives the lock scope.
  if (table != nullptr) return table->PowMont(exp);
  return mont_->PowMont(mont_->ToMont(base.Mod(params_.p)), exp);
}

UInt256 RandomInRange(Xoshiro256* rng, const UInt256& low,
                      const UInt256& high) {
  // range = high - low + 1; sample 256 random bits, reduce mod range.
  UInt256 range = high.Sub(low).Add(UInt256(1));
  UInt256 sample(rng->Next(), rng->Next(), rng->Next(), rng->Next());
  if (range.IsZero()) {
    // Full 2^256 range: the raw sample is already uniform.
    return sample;
  }
  return low.Add(sample.Mod(range));
}

DiffieHellman::DiffieHellman(GroupParams params)
    : params_(params),
      ctx_(GroupContext::Get(params)) {}

DhKeyPair DiffieHellman::GenerateKeyPair(Xoshiro256* rng) const {
  UInt256 two(2);
  UInt256 max = params_.p.Sub(UInt256(2));
  UInt256 x = RandomInRange(rng, two, max);
  return DhKeyPair{x, PublicKey(x)};
}

UInt256 DiffieHellman::PublicKey(const UInt256& private_key) const {
  return ctx_->PowG(private_key);
}

UInt256 DiffieHellman::ComputeShared(const UInt256& private_key,
                                     const UInt256& peer_public) const {
  return ctx_->PowBase(peer_public, private_key);
}

std::array<uint8_t, 32> DiffieHellman::DeriveKey(const UInt256& shared,
                                                 std::string_view label) {
  Sha256 hasher;
  hasher.Update(label);
  Bytes bytes = shared.ToBytes();
  hasher.Update(bytes);
  Digest digest = hasher.Finish();
  std::array<uint8_t, 32> key;
  std::copy(digest.begin(), digest.end(), key.begin());
  return key;
}

}  // namespace bcfl::crypto
