// Cash and goods ledgers.
//
// Settlement moves real balances: buyers' cash to the exchange, the
// exchange's cash to sellers, and one unit of the good per delivered
// trade.  Both ledgers are conservation-checked: money and goods are
// created only by explicit grants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/ids.h"
#include "common/money.h"

namespace fnda {

namespace detail {

/// Per-account values in a flat vector indexed by the account id.  Account
/// ids are minted densely from 1 (0 is the exchange), so the vector stays
/// as small as the largest id seen; the escrow pseudo-account, whose id
/// sits at the top of the range, gets a reserved slot of its own.
template <typename T>
class AccountTable {
 public:
  static constexpr AccountId kReserved{static_cast<std::uint64_t>(-2)};

  /// The account's value, created zero on first touch.
  T& operator[](AccountId account) {
    if (account == kReserved) return reserved_;
    const std::uint64_t index = account.value();
    if (index >= values_.size()) {
      if (index >= values_.max_size()) {
        throw std::out_of_range("ledger: account id outside the dense range");
      }
      values_.resize(static_cast<std::size_t>(index) + 1);
    }
    return values_[index];
  }

  /// The account's value; zero for an account never touched.
  T get(AccountId account) const {
    if (account == kReserved) return reserved_;
    const std::uint64_t index = account.value();
    return index < values_.size() ? values_[index] : T{};
  }

  T sum() const {
    T total = reserved_;
    for (const T& value : values_) total += value;
    return total;
  }

 private:
  std::vector<T> values_;
  T reserved_{};
};

}  // namespace detail

/// Account cash balances.  Balances may go negative (the simulator's
/// traders have credit); conservation is the invariant that matters:
/// the sum of all balances never changes except through grant().
class CashLedger {
 public:
  /// Escrow is itself a cash holder: posted deposits sit in this
  /// pseudo-account, so the conservation invariant covers them too.
  static constexpr AccountId escrow_account() {
    return detail::AccountTable<Money>::kReserved;
  }

  /// Creates money (initial endowments only).
  void grant(AccountId account, Money amount);

  /// Moves `amount` from one account to another.
  void transfer(AccountId from, AccountId to, Money amount);

  Money balance(AccountId account) const;

  /// Sum over all accounts, the escrow pseudo-account included; constant
  /// across transfers.
  Money total() const;

 private:
  detail::AccountTable<Money> balances_;
};

/// Units of the (single) traded good held per account.
class GoodsLedger {
 public:
  void grant(AccountId account, std::size_t units);

  /// Moves one unit; returns false (and moves nothing) if `from` has none.
  bool transfer_unit(AccountId from, AccountId to);

  std::size_t units(AccountId account) const;
  std::size_t total() const;

 private:
  detail::AccountTable<std::size_t> units_;
};

}  // namespace fnda
