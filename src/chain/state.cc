#include "chain/state.h"

#include <cassert>

namespace bcfl::chain {

namespace {

constexpr std::string_view kRootDomain = "bcfl-state-v2";

void UpdateLength(crypto::Sha256* hasher, size_t size) {
  const uint32_t len = static_cast<uint32_t>(size);
  const uint8_t le[4] = {static_cast<uint8_t>(len),
                         static_cast<uint8_t>(len >> 8),
                         static_cast<uint8_t>(len >> 16),
                         static_cast<uint8_t>(len >> 24)};
  hasher->Update(le, sizeof(le));
}

/// Same bytes as ByteWriter::WriteString(key) + WriteBytes(value), hashed
/// without building the preimage.
crypto::Digest LeafDigest(const std::string& key, const Bytes& value) {
  crypto::Sha256 hasher;
  UpdateLength(&hasher, key.size());
  hasher.Update(key);
  UpdateLength(&hasher, value.size());
  hasher.Update(value);
  return hasher.Finish();
}

}  // namespace

ContractState::Scope::Scope(ContractState* state)
    : state_(state),
      mark_(state->journal_.size()),
      depth_(++state->open_scopes_) {}

ContractState::Scope::~Scope() {
  if (state_ == nullptr) return;
  state_->RollbackTo(mark_);
  Close();
}

void ContractState::Scope::Keep() {
  if (state_ == nullptr) return;
  ContractState* state = state_;
  Close();
  // The outermost scope has nobody left to roll back to.
  if (state->open_scopes_ == 0) state->journal_.clear();
}

ContractState::WriteSet ContractState::Scope::Writes() const {
  assert(state_ != nullptr && "scope already closed");
  WriteSet writes;
  for (size_t i = mark_; i < state_->journal_.size(); ++i) {
    auto [slot, fresh] = writes.try_emplace(state_->journal_[i].key);
    if (!fresh) continue;
    auto it = state_->entries_.find(slot->first);
    if (it != state_->entries_.end()) slot->second = it->second;
  }
  return writes;
}

void ContractState::Scope::Close() {
  assert(state_->open_scopes_ == depth_ && "scopes must close innermost first");
  --state_->open_scopes_;
  state_ = nullptr;
}

void ContractState::Put(const std::string& key, Bytes value) {
  // Values often arrive in a grown writer buffer; store them at their
  // exact size, since they may stay in the state for the whole session.
  value.shrink_to_fit();
  Entry fresh{std::move(value), {}};
  fresh.leaf = LeafDigest(key, fresh.value);
  PutEntry(key, std::move(fresh));
}

void ContractState::PutEntry(const std::string& key, Entry entry) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (open_scopes_ > 0) {
    journal_.push_back({key, std::nullopt});
    if (!inserted) journal_.back().prior = std::move(it->second);
  }
  it->second = std::move(entry);
}

Result<Bytes> ContractState::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("no such state key: " + key);
  }
  return it->second.value;
}

bool ContractState::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

void ContractState::Delete(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (open_scopes_ > 0) journal_.push_back({key, std::move(it->second)});
  entries_.erase(it);
}

void ContractState::Apply(WriteSet writes) {
  for (auto& [key, entry] : writes) {
    if (entry) {
      PutEntry(key, std::move(*entry));
    } else {
      Delete(key);
    }
  }
}

std::vector<std::string> ContractState::KeysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

crypto::Digest ContractState::StateRoot() const {
  crypto::Sha256 hasher;
  hasher.Update(kRootDomain);
  for (const auto& [key, entry] : entries_) {
    hasher.Update(entry.leaf.data(), entry.leaf.size());
  }
  return hasher.Finish();
}

void ContractState::RollbackTo(size_t mark) {
  // Newest first, so a key written several times ends at its oldest
  // journaled value — the one it had when the scope opened.
  while (journal_.size() > mark) {
    Undo& undo = journal_.back();
    if (undo.prior) {
      entries_.insert_or_assign(std::move(undo.key), std::move(*undo.prior));
    } else {
      entries_.erase(undo.key);
    }
    journal_.pop_back();
  }
}

}  // namespace bcfl::chain
