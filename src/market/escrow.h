// Security-deposit escrow (Section 6's penalty mechanism).
//
// "If one completes his/her transaction, or his/her bid is not included in
// the actual trades, the security deposit would be returned.  If one does
// not complete his/her transaction while his/her bid is included in the
// actual trades, the security deposit would be confiscated."
//
// Deposits are posted per identity (the server cannot tell identities
// apart, so it must charge each one).  Confiscated deposits go to the
// exchange account.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "common/segmented.h"
#include "market/audit.h"
#include "market/clock.h"
#include "market/identity.h"
#include "market/ledger.h"
#include "obs/metrics.h"

namespace fnda {

class EscrowService {
 public:
  /// Deposits live in a segmented column on `lattice`'s slots, so pass the
  /// lattice of the registry that mints the identities posting here.
  explicit EscrowService(CashLedger& cash, IdentityLattice lattice = {})
      : cash_(cash), lattice_(lattice) {}

  /// Moves `amount` from `payer`'s cash into escrow for `identity`.
  /// Additional posts accumulate.  Throws std::out_of_range for an
  /// identity off the lattice or too far along it to index.
  void post(IdentityId identity, AccountId payer, Money amount);

  /// Returns the full deposit to `payee`'s cash.
  void refund(IdentityId identity, AccountId payee);

  /// Seizes the full deposit for the exchange.  Returns the amount seized.
  Money confiscate(IdentityId identity, AccountId exchange);

  /// Market close: one pass in ascending identity order that returns each
  /// non-zero deposit to the account behind its identity and logs it as a
  /// deposit-refunded record stamped `now`.  Returns the total refunded.
  /// Throws std::out_of_range (from `registry.owner`) for an unminted
  /// holder.
  Money refund_all(const IdentityRegistry& registry, AuditLog& audit,
                   SimTime now);

  Money held(IdentityId identity) const;
  Money total_held() const { return held_total_; }

  /// Identities currently holding a non-zero deposit, ascending.
  std::vector<IdentityId> identities_with_deposits() const;
  /// How many identities hold a non-zero deposit.
  std::size_t holder_count() const;

  /// Registers deposit-flow counters (posts, refunds, seizures — counts
  /// and micros) plus a snapshot-time gauge over total_held().
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  /// Moves slot `slot`'s whole deposit to `to` and zeroes it.
  void release(std::size_t slot, AccountId to);

  CashLedger& cash_;
  IdentityLattice lattice_;
  /// Deposit per lattice slot; slot i belongs to identity lattice_.at(i).
  SegmentedColumn<Money> deposits_;
  /// Sum of deposits_, kept exact on every post and release.
  Money held_total_;

  obs::Counter* posted_counter_ = nullptr;
  obs::Counter* refunded_counter_ = nullptr;
  obs::Counter* seized_counter_ = nullptr;
  obs::Counter* seized_micros_counter_ = nullptr;
};

}  // namespace fnda
