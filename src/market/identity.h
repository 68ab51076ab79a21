// Account and identity management.
//
// The paper's threat model in one class: accounts are real economic
// actors, identities are names minted at will.  The auction server never
// queries the account behind an identity (that is the whole point of a
// false-name bid); only settlement — physical delivery — pierces the veil,
// via owner(), which models "the fact that s_y is a false-name bid is
// brought to light".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/segmented.h"

namespace fnda {

/// The identity ids one registry mints: first, first + stride, first +
/// 2*stride, ...  Every per-identity table (owners, escrow deposits) is a
/// segmented column indexed by the dense slot this lattice assigns an id.
struct IdentityLattice {
  std::uint64_t first = 0;
  std::uint64_t stride = 1;

  /// (id - first) / stride, or nullopt for an id below `first` or off the
  /// stride.  Says nothing about whether the id has been minted yet.
  std::optional<std::size_t> slot_of(IdentityId identity) const {
    if (identity.value() < first) return std::nullopt;
    const std::uint64_t offset = identity.value() - first;
    if (offset % stride != 0) return std::nullopt;
    return static_cast<std::size_t>(offset / stride);
  }
  IdentityId at(std::size_t slot) const {
    return IdentityId{first + slot * stride};
  }
};

class IdentityRegistry {
 public:
  /// Reserved account for the exchange/auctioneer itself.
  static constexpr AccountId exchange_account() { return AccountId{0}; }

  IdentityRegistry() = default;
  /// Strided identity namespace: shard `s` of an S-shard exchange uses
  /// (first = s, stride = S), so every shard mints globally unique
  /// identity ids with no shared counter — and the ids a shard mints do
  /// not depend on what other shards do, which keeps parallel runs
  /// bit-identical.
  IdentityRegistry(std::uint64_t first_identity, std::uint64_t identity_stride)
      : lattice_{first_identity, identity_stride == 0 ? 1 : identity_stride} {}

  /// Opens a fresh trader account.
  AccountId create_account();

  /// Mints a new identity owned by `account`.  Unlimited and cheap —
  /// identifying participants on the Internet is "virtually impossible".
  IdentityId register_identity(AccountId account);

  /// The account behind an identity.  Settlement-time only.
  /// Throws std::out_of_range for identities this registry never minted
  /// (unminted yet, or off its lattice).
  AccountId owner(IdentityId identity) const;

  /// All identities minted by one account, ascending (audit views).
  std::vector<IdentityId> identities_of(AccountId account) const;

  /// The id namespace this registry mints from.
  const IdentityLattice& lattice() const { return lattice_; }

  std::size_t account_count() const { return next_account_ - 1; }
  std::size_t identity_count() const { return owners_.size(); }

 private:
  IdentityLattice lattice_;
  /// Owner per lattice slot; slot i holds identity lattice_.at(i).
  SegmentedColumn<AccountId> owners_;
  std::uint64_t next_account_ = 1;  // 0 is the exchange
};

}  // namespace fnda
