#include "protocols/random_threshold.h"

#include <algorithm>

namespace fnda {

RandomThresholdProtocol::RandomThresholdProtocol(Money threshold)
    : threshold_(threshold) {}

void RandomThresholdProtocol::fill(const SortedBook& book, Rng& rng,
                                   Outcome& outcome) const {
  const Money r = threshold_;

  // The ranking puts every eligible buyer in ranks 1..i and every
  // eligible seller in ranks 1..j, so eligibility needs no scan.
  const std::size_t i = book.buyers_at_or_above(r);
  const std::size_t j = book.sellers_at_or_below(r);

  std::vector<const BidEntry*> eligible_buyers;
  std::vector<const BidEntry*> eligible_sellers;
  eligible_buyers.reserve(i);
  eligible_sellers.reserve(j);
  for (std::size_t rank = 1; rank <= i; ++rank) {
    eligible_buyers.push_back(&book.buyer(rank));
  }
  for (std::size_t rank = 1; rank <= j; ++rank) {
    eligible_sellers.push_back(&book.seller(rank));
  }

  const std::size_t trades = std::min(i, j);
  rng.shuffle(eligible_buyers.begin(), eligible_buyers.end());
  rng.shuffle(eligible_sellers.begin(), eligible_sellers.end());

  outcome.reserve(trades);
  for (std::size_t t = 0; t < trades; ++t) {
    outcome.add_buy(eligible_buyers[t]->id, eligible_buyers[t]->identity, r);
    outcome.add_sell(eligible_sellers[t]->id, eligible_sellers[t]->identity,
                     r);
  }
}

}  // namespace fnda
