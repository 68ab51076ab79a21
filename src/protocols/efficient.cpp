#include "protocols/efficient.h"

namespace fnda {

void EfficientClearing::fill(const SortedBook& book, Rng&,
                             Outcome& outcome) const {
  const std::size_t k = book.efficient_trade_count();
  if (k == 0) return;
  outcome.reserve(k);
  // Any price in [s(k), b(k)] clears all k trades; the midpoint splits the
  // marginal pair's surplus evenly.
  const Money price =
      Money::midpoint(book.buyer_value(k), book.seller_value(k));
  for (std::size_t rank = 1; rank <= k; ++rank) {
    outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, price);
    outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, price);
  }
}

bool EfficientClearing::account_position(const SortedBook& ranked,
                                         const std::vector<OwnDeclaration>& own,
                                         AccountFills* out) const {
  const std::size_t k = ranked.efficient_trade_count();
  if (k == 0) return true;
  const Money price =
      Money::midpoint(ranked.buyer_value(k), ranked.seller_value(k));
  for (const OwnDeclaration& decl : own) {
    if (decl.rank > k) continue;
    if (decl.side == Side::kBuyer) {
      ++out->bought;
      out->paid += price;
    } else {
      ++out->sold;
      out->received += price;
    }
  }
  return true;
}

}  // namespace fnda
