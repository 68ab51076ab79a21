#include "protocols/pmd.h"

namespace fnda {

void PmdProtocol::fill(const SortedBook& book, Rng&, Outcome& outcome) const {
  const std::size_t k = book.efficient_trade_count();
  if (k == 0) return;
  outcome.reserve(k);

  // Sentinel ranks are valid: buyer_value(m+1) / seller_value(n+1) return
  // the domain bounds, exactly the paper's b(m+1) / s(n+1).
  const Money p0 =
      Money::midpoint(book.buyer_value(k + 1), book.seller_value(k + 1));
  const Money bk = book.buyer_value(k);
  const Money sk = book.seller_value(k);

  if (sk <= p0 && p0 <= bk) {
    // Condition 1: all k efficient trades execute at the uniform price p0.
    for (std::size_t rank = 1; rank <= k; ++rank) {
      outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, p0);
      outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, p0);
    }
  } else {
    // Condition 2: the marginal pair (k) is excluded and prices the rest.
    for (std::size_t rank = 1; rank + 1 <= k; ++rank) {
      outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, bk);
      outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, sk);
    }
  }
}

bool PmdProtocol::account_position(const SortedBook& ranked,
                                   const std::vector<OwnDeclaration>& own,
                                   AccountFills* out) const {
  const std::size_t k = ranked.efficient_trade_count();
  if (k == 0) return true;
  const Money p0 =
      Money::midpoint(ranked.buyer_value(k + 1), ranked.seller_value(k + 1));
  const Money bk = ranked.buyer_value(k);
  const Money sk = ranked.seller_value(k);
  // Same branch as clear_sorted: condition 1 trades ranks 1..k at p0,
  // condition 2 trades ranks 1..k-1 at (bk, sk).
  const bool uniform = sk <= p0 && p0 <= bk;
  const std::size_t cutoff = uniform ? k : k - 1;
  const Money buyer_price = uniform ? p0 : bk;
  const Money seller_price = uniform ? p0 : sk;
  for (const OwnDeclaration& decl : own) {
    if (decl.rank > cutoff) continue;
    if (decl.side == Side::kBuyer) {
      ++out->bought;
      out->paid += buyer_price;
    } else {
      ++out->sold;
      out->received += seller_price;
    }
  }
  return true;
}

}  // namespace fnda
