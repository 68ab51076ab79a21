// Clearing outcomes.
//
// Every protocol reduces to a set of unit fills: one unit moving to a buyer
// identity at some price and one unit moving from a seller identity at some
// (possibly different) price.  Uniform-price protocols produce fills that
// all share a price per side; the multi-unit TPD extension produces
// per-unit GVA payments, which this representation captures without a
// special case.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "core/bid.h"

namespace fnda {

/// One unit bought or sold.  `price` is what the buyer pays (kBuyer fills)
/// or what the seller receives (kSeller fills) for this unit.
struct Fill {
  Side side;
  BidId bid;
  IdentityId identity;
  Money price;

  friend bool operator==(const Fill&, const Fill&) = default;
};

/// Result of one clearing.  Invariant (checked by `validate_outcome`):
/// the number of buyer fills equals the number of seller fills, and the
/// auctioneer revenue (buyer payments minus seller receipts) is
/// non-negative — the auctioneer is a budget balancer, never a subsidiser.
class Outcome {
 public:
  Outcome() = default;

  /// Empties the outcome for the next clearing, as if freshly
  /// constructed, but keeps the fill vector's capacity: a hot loop that
  /// clears into one Outcome stops allocating fills once it has grown.
  void reset();

  void add_buy(BidId bid, IdentityId identity, Money price);
  void add_sell(BidId bid, IdentityId identity, Money price);

  /// Pre-sizes the fill vector for `trades` buyer+seller fill pairs.
  /// Protocols that know their trade count up front call this so the hot
  /// Monte-Carlo loops do not grow the container incrementally.
  void reserve(std::size_t trades);

  const std::vector<Fill>& fills() const { return fills_; }

  /// Number of units traded (buyer-side fills; equal to seller-side fills
  /// in any valid outcome).
  std::size_t trade_count() const { return buy_count_; }
  std::size_t buy_fill_count() const { return buy_count_; }
  std::size_t sell_fill_count() const { return sell_count_; }

  /// Credits a non-trade transfer from the auctioneer to an identity
  /// (e.g. a revenue rebate).  Amounts must be non-negative; repeated
  /// credits accumulate.
  void add_rebate(IdentityId identity, Money amount);

  /// Total paid by buyers.
  Money buyer_payments() const { return buyer_payments_; }
  /// Total received by sellers.
  Money seller_receipts() const { return seller_receipts_; }
  /// Rebates granted (zero for the standard protocols).
  Money rebates_total() const { return rebates_total_; }
  Money rebate_of(IdentityId identity) const;
  /// What the budget balancer keeps: payments minus receipts and rebates.
  Money auctioneer_revenue() const {
    return buyer_payments_ - seller_receipts_ - rebates_total_;
  }

  /// Units bought / sold by one identity in this outcome.
  std::size_t units_bought(IdentityId identity) const;
  std::size_t units_sold(IdentityId identity) const;
  /// Total money paid / received by one identity.
  Money paid_by(IdentityId identity) const;
  Money received_by(IdentityId identity) const;

  /// True if `bid` appears in any fill.
  bool bid_filled(BidId bid) const;

 private:
  struct PerIdentity {
    std::size_t bought = 0;
    std::size_t sold = 0;
    Money paid;
    Money received;
  };

  /// The per-identity / per-bid lookup tables are derived views over
  /// `fills_`, built lazily on the first query (and invalidated by later
  /// add_buy/add_sell).  The Monte-Carlo hot loops never query them —
  /// surplus and validation both iterate `fills()` directly — so clearing
  /// stays a plain vector append with no hashing.  Lazy build is not
  /// thread-safe; outcomes are per-thread values everywhere in this
  /// codebase.
  void ensure_aggregates() const;

  std::vector<Fill> fills_;
  std::size_t buy_count_ = 0;
  std::size_t sell_count_ = 0;
  Money buyer_payments_;
  Money seller_receipts_;
  mutable bool aggregates_built_ = false;
  mutable std::unordered_map<IdentityId, PerIdentity> per_identity_;
  mutable std::unordered_map<BidId, std::size_t> fills_per_bid_;
  std::unordered_map<IdentityId, Money> rebates_;
  Money rebates_total_;
};

}  // namespace fnda
