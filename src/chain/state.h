#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace bcfl::chain {

/// Deterministic key-value store backing smart-contract execution.
///
/// Keys are strings, values opaque bytes. The store is an ordered map so
/// `StateRoot()` — a SHA-256 fold over per-entry leaf digests in key
/// order — is identical on every miner that executed the same
/// transactions in the same order. Consensus compares state roots to
/// verify the leader's execution.
///
/// Execution is in place: a `Scope` journals every write made while it
/// is open and undoes them unless kept, so trial executions (proposals,
/// validations, failing transactions) cost O(write set), never a copy of
/// the whole store. A scope can also hand out its net writes, which
/// `Apply` replays on the same pre-state without re-executing anything.
/// The store is deliberately not copyable.
class ContractState {
  struct Entry {
    Bytes value;
    /// SHA-256(u32 len ‖ key ‖ u32 len ‖ value), lengths little-endian.
    crypto::Digest leaf;
  };

 public:
  /// Net writes of a scope: each key it touched, mapped to the entry
  /// (value and cached leaf) the key ends with, or to nothing when the
  /// key ends deleted.
  using WriteSet = std::map<std::string, std::optional<Entry>>;

  /// RAII undo scope. Writes made while it is open are rolled back when
  /// it is destroyed, unless `Keep()` was called first. Scopes nest
  /// strictly (innermost first); keeping an inner scope hands its writes
  /// to the enclosing one, which may still roll them back. A scope must
  /// not outlive its state.
  class Scope {
   public:
    explicit Scope(ContractState* state);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Keeps this scope's writes; the destructor then does nothing.
    void Keep();

    /// Copies of this scope's net writes so far (cached leaves included);
    /// the scope stays open and may still roll them back.
    WriteSet Writes() const;

   private:
    void Close();

    ContractState* state_;  ///< Null once kept or rolled back.
    size_t mark_;           ///< Journal length when the scope opened.
    size_t depth_;          ///< Open scopes including this one.
  };

  ContractState() = default;
  ContractState(const ContractState&) = delete;
  ContractState& operator=(const ContractState&) = delete;

  /// Stores `value` under `key` (overwrites).
  void Put(const std::string& key, Bytes value);
  /// Retrieves a value; NotFound if absent.
  Result<Bytes> Get(const std::string& key) const;
  bool Has(const std::string& key) const;
  /// Removes a key (no-op when absent).
  void Delete(const std::string& key);

  /// Replays `writes`, taken by `Scope::Writes()` on a state with the
  /// same contents as this one, journaled under any open scope. Leaves
  /// are trusted, not re-hashed.
  void Apply(WriteSet writes);

  /// Number of live keys.
  size_t size() const { return entries_.size(); }

  /// Keys beginning with `prefix`, in sorted order — contracts use
  /// prefix scans to enumerate e.g. all submissions of a round.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  /// Commitment to the full store contents:
  /// SHA-256("bcfl-state-v2" ‖ leaf_1 ‖ … ‖ leaf_N) over the entries in
  /// key order, each leaf cached since its `Put`. Costs 32 bytes of
  /// hashing per key, independent of value sizes.
  crypto::Digest StateRoot() const;

 private:
  /// What a write replaced: the prior entry, or nothing for a fresh key.
  struct Undo {
    std::string key;
    std::optional<Entry> prior;
  };

  void PutEntry(const std::string& key, Entry entry);
  void RollbackTo(size_t mark);

  std::map<std::string, Entry> entries_;
  std::vector<Undo> journal_;  ///< Writes made under the open scopes.
  size_t open_scopes_ = 0;
};

}  // namespace bcfl::chain
