// Problem instances: the *true* state of the world the simulation knows
// but protocols never see.
#pragma once

#include <vector>

#include "core/order_book.h"
#include "core/surplus.h"

namespace fnda {

/// One single-unit market instance: true valuations of m buyers and n
/// sellers (Section 7's problem instances).
struct SingleUnitInstance {
  std::vector<Money> buyer_values;
  std::vector<Money> seller_values;
  ValueDomain domain{};
};

/// An instance realised as declarations: the order book that results when
/// every participant bids truthfully under its own single identity, plus
/// the identity bookkeeping needed to score outcomes.
struct InstantiatedMarket {
  OrderBook book;
  TrueValuations truth;
  /// buyer_identities[i] is the identity of the buyer with true value
  /// instance.buyer_values[i]; likewise for sellers.
  std::vector<IdentityId> buyer_identities;
  std::vector<IdentityId> seller_identities;
};

/// Builds the truthful market for an instance.  Buyer i receives identity
/// value i; seller j receives kSellerIdentityBase + j, so the two sides
/// never collide.
InstantiatedMarket instantiate_truthful(const SingleUnitInstance& instance);

/// The book of `instantiate_truthful(instance)`, filled into `into`
/// (reset first, lane capacity kept) so a hot loop can reuse one book
/// across instances.
void truthful_book(const SingleUnitInstance& instance, OrderBook& into);

/// The ranking `SortedBook::rebuild(truthful_book(instance), tie_rng)`
/// produces, entry for entry, written straight into `into`'s lanes and
/// ranked in place: no OrderBook in between, and the footnote-5 shuffle
/// only when a lane holds equal values or `expect_ties` says one likely
/// does (SortedBook::rank_private).  So `tie_rng` must be private to this
/// ranking, as the Monte-Carlo runner's per-instance Pareto stream is.
/// Returns whether a lane holds equal values; a loop over like instances
/// passes the last answer back as `expect_ties`.
bool rank_truthful(const SingleUnitInstance& instance, Rng& tie_rng,
                   SortedBook& into, bool expect_ties = false);

/// Identity-space split between buyer and seller lanes (and, above
/// kExtraIdentityBase, identities minted for false-name declarations).
inline constexpr std::uint64_t kSellerIdentityBase = 1'000'000;
inline constexpr std::uint64_t kExtraIdentityBase = 2'000'000;

}  // namespace fnda
