#include "protocols/vcg.h"

#include <algorithm>

namespace fnda {

Money VcgDoubleAuction::buyer_price(const SortedBook& book) {
  const std::size_t k = book.efficient_trade_count();
  return std::max(book.buyer_value(k + 1), book.seller_value(k));
}

Money VcgDoubleAuction::seller_price(const SortedBook& book) {
  const std::size_t k = book.efficient_trade_count();
  return std::min(book.seller_value(k + 1), book.buyer_value(k));
}

void VcgDoubleAuction::fill(const SortedBook& book, Rng&,
                            Outcome& outcome) const {
  const std::size_t k = book.efficient_trade_count();
  if (k == 0) return;
  outcome.reserve(k);
  const Money pay = buyer_price(book);
  const Money get = seller_price(book);
  for (std::size_t rank = 1; rank <= k; ++rank) {
    outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, pay);
    outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, get);
  }
}

bool VcgDoubleAuction::account_position(const SortedBook& ranked,
                                        const std::vector<OwnDeclaration>& own,
                                        AccountFills* out) const {
  const std::size_t k = ranked.efficient_trade_count();
  if (k == 0) return true;
  const Money pay = buyer_price(ranked);
  const Money get = seller_price(ranked);
  for (const OwnDeclaration& decl : own) {
    if (decl.rank > k) continue;
    if (decl.side == Side::kBuyer) {
      ++out->bought;
      out->paid += pay;
    } else {
      ++out->sold;
      out->received += get;
    }
  }
  return true;
}

}  // namespace fnda
