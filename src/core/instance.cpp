#include "core/instance.h"

namespace fnda {

void truthful_book(const SingleUnitInstance& instance, OrderBook& into) {
  into.reset(instance.domain);
  for (std::size_t i = 0; i < instance.buyer_values.size(); ++i) {
    into.add_buyer(IdentityId{i}, instance.buyer_values[i]);
  }
  for (std::size_t j = 0; j < instance.seller_values.size(); ++j) {
    into.add_seller(IdentityId{kSellerIdentityBase + j},
                    instance.seller_values[j]);
  }
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
