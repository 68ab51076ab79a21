#include "protocols/tpd_rebate.h"

#include "protocols/tpd.h"

namespace fnda {
namespace {

/// TPD auctioneer revenue of `book` with the declaration of `skip`
/// removed.  Deterministic: uses its own fixed tie-break stream (revenue
/// depends only on values, not on tie order).
Money revenue_without(const SortedBook& book, IdentityId skip,
                      Money threshold) {
  OrderBook reduced(book.domain());
  for (const BidEntry& entry : book.buyers()) {
    if (entry.identity != skip) reduced.add_buyer(entry.identity, entry.value);
  }
  for (const BidEntry& entry : book.sellers()) {
    if (entry.identity != skip) {
      reduced.add_seller(entry.identity, entry.value);
    }
  }
  // Revenue is a function of the declared values alone (tie order only
  // permutes same-valued fills), so a fixed stream is safe here.
  Rng rng(0x2eba7e);
  const Outcome outcome = TpdProtocol(threshold).clear(reduced, rng);
  return outcome.auctioneer_revenue();
}

/// Value at rank `y` of a buyer lane with the entry at rank `removed`
/// deleted (`removed == 0`: nothing deleted from this lane).  Deleting a
/// rank shifts everything behind it forward by one, so the reduced lane's
/// rank y maps to the full lane's rank y (before the hole) or y+1 (after).
Money buyer_value_without(const SortedBook& ranked, std::size_t y,
                          std::size_t removed) {
  if (removed != 0 && y >= removed) ++y;
  return ranked.buyer_value(y);
}

Money seller_value_without(const SortedBook& ranked, std::size_t y,
                          std::size_t removed) {
  if (removed != 0 && y >= removed) ++y;
  return ranked.seller_value(y);
}

/// `revenue_without` by rank arithmetic on the full ranking: O(log n)
/// instead of rebuild-and-reclear.  Removing one declaration shifts at
/// most its own lane's ranks and decrements at most one of the eligible
/// counts; revenue is then the usual TPD case split on the reduced book.
Money revenue_without_ranked(const SortedBook& ranked, Money r, Side side,
                             std::size_t rank, Money value) {
  std::size_t i = ranked.buyers_at_or_above(r);
  std::size_t j = ranked.sellers_at_or_below(r);
  std::size_t removed_buyer = 0;
  std::size_t removed_seller = 0;
  if (side == Side::kBuyer) {
    removed_buyer = rank;
    if (value >= r) --i;
  } else {
    removed_seller = rank;
    if (value <= r) --j;
  }
  if (i == j) return Money{};
  if (i > j) {
    // j trades; buyers pay b'(j+1) >= r, sellers receive r.
    const Money pay = buyer_value_without(ranked, j + 1, removed_buyer);
    return Money::from_micros(static_cast<std::int64_t>(j) *
                              (pay.micros() - r.micros()));
  }
  // i trades; buyers pay r, sellers receive s'(i+1) <= r.
  const Money get = seller_value_without(ranked, i + 1, removed_seller);
  return Money::from_micros(static_cast<std::int64_t>(i) *
                            (r.micros() - get.micros()));
}

}  // namespace

TpdWithRebates::TpdWithRebates(Money threshold) : threshold_(threshold) {}

void TpdWithRebates::fill(const SortedBook& book, Rng& rng,
                          Outcome& outcome) const {
  TpdProtocol(threshold_).clear_into(book, rng, outcome);

  // One rebate per participating identity (an identity with several
  // declarations would collect once per declaration — which is exactly
  // the vulnerability this module demonstrates, since identities are
  // free to mint).
  std::vector<IdentityId> identities;
  identities.reserve(book.buyer_count() + book.seller_count());
  for (const BidEntry& entry : book.buyers()) {
    identities.push_back(entry.identity);
  }
  for (const BidEntry& entry : book.sellers()) {
    identities.push_back(entry.identity);
  }
  if (identities.empty()) return;

  const auto n = static_cast<std::int64_t>(identities.size());
  for (IdentityId identity : identities) {
    const Money reduced_revenue =
        revenue_without(book, identity, threshold_);
    if (reduced_revenue <= Money{}) continue;
    outcome.add_rebate(identity,
                       Money::from_micros(reduced_revenue.micros() / n));
  }
}

bool TpdWithRebates::account_position(const SortedBook& ranked,
                                      const std::vector<OwnDeclaration>& own,
                                      AccountFills* out) const {
  TpdProtocol::position_on(ranked, threshold_, own, out);
  const auto n =
      static_cast<std::int64_t>(ranked.buyer_count() + ranked.seller_count());
  if (n == 0) return true;
  for (const OwnDeclaration& decl : own) {
    // Same divisor and positivity gate as clear_sorted's rebate loop.
    const Money revenue = revenue_without_ranked(ranked, threshold_, decl.side,
                                                 decl.rank, decl.value);
    if (revenue <= Money{}) continue;
    out->received += Money::from_micros(revenue.micros() / n);
  }
  return true;
}

}  // namespace fnda
