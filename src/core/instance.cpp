#include "core/instance.h"

namespace fnda {

namespace {

// The identity convention of instantiate_truthful, in one place.
IdentityId buyer_identity(std::size_t i) { return IdentityId{i}; }
IdentityId seller_identity(std::size_t j) {
  return IdentityId{kSellerIdentityBase + j};
}

}  // namespace

void truthful_book(const SingleUnitInstance& instance, OrderBook& into) {
  into.reset(instance.domain);
  for (std::size_t i = 0; i < instance.buyer_values.size(); ++i) {
    into.add_buyer(buyer_identity(i), instance.buyer_values[i]);
  }
  for (std::size_t j = 0; j < instance.seller_values.size(); ++j) {
    into.add_seller(seller_identity(j), instance.seller_values[j]);
  }
}

bool rank_truthful(const SingleUnitInstance& instance, Rng& tie_rng,
                   SortedBook& into, bool expect_ties) {
  const std::vector<Money>& buyer_values = instance.buyer_values;
  const std::vector<Money>& seller_values = instance.seller_values;
  const std::size_t m = buyer_values.size();
  // Bid ids as truthful_book's adds assign them: buyers 0..m-1, then
  // sellers m..m+n-1.
  return into.rank_private(
      instance.domain, m, seller_values.size(), tie_rng, expect_ties,
      [&](std::span<BidEntry> buyers, std::span<BidEntry> sellers) {
        for (std::size_t i = 0; i < m; ++i) {
          buyers[i] = BidEntry{BidId{i}, buyer_identity(i), buyer_values[i]};
        }
        for (std::size_t j = 0; j < sellers.size(); ++j) {
          sellers[j] =
              BidEntry{BidId{m + j}, seller_identity(j), seller_values[j]};
        }
      });
}

InstantiatedMarket instantiate_truthful(const SingleUnitInstance& instance) {
  InstantiatedMarket market;
  truthful_book(instance, market.book);
  market.truth.buyer_values.reserve(market.book.buyer_count());
  market.truth.seller_values.reserve(market.book.seller_count());
  market.buyer_identities.reserve(market.book.buyer_count());
  market.seller_identities.reserve(market.book.seller_count());

  for (const BidEntry& bid : market.book.buyers()) {
    market.truth.buyer_values.emplace(bid.identity, bid.value);
    market.buyer_identities.push_back(bid.identity);
  }
  for (const BidEntry& bid : market.book.sellers()) {
    market.truth.seller_values.emplace(bid.identity, bid.value);
    market.seller_identities.push_back(bid.identity);
  }
  return market;
}

}  // namespace fnda
