#include "protocols/tpd.h"

#include <algorithm>

namespace fnda {

TpdProtocol::TpdProtocol(Money threshold) : threshold_(threshold) {}

void TpdProtocol::fill(const SortedBook& book, Rng&, Outcome& outcome) const {
  const Money r = threshold_;
  const std::size_t i = book.buyers_at_or_above(r);
  const std::size_t j = book.sellers_at_or_below(r);
  outcome.reserve(std::min(i, j));

  if (i == j) {
    // Balanced around r: everyone eligible trades at r, budget balanced.
    for (std::size_t rank = 1; rank <= i; ++rank) {
      outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, r);
      outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, r);
    }
  } else if (i > j) {
    // Excess demand: sellers are the short side.  The (j+1)-th buyer value
    // prices the buyers (it is >= r because j + 1 <= i).
    const Money buyer_price = book.buyer_value(j + 1);
    for (std::size_t rank = 1; rank <= j; ++rank) {
      outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity,
                      buyer_price);
      outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, r);
    }
  } else {
    // Excess supply: buyers are the short side.  The (i+1)-th seller value
    // prices the sellers (it is <= r because i + 1 <= j).
    const Money seller_price = book.seller_value(i + 1);
    for (std::size_t rank = 1; rank <= i; ++rank) {
      outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, r);
      outcome.add_sell(book.seller(rank).id, book.seller(rank).identity,
                       seller_price);
    }
  }
}

PriceBracket TpdProtocol::price_bracket(const SortedBook&,
                                        std::size_t) const {
  return PriceBracket{threshold_, threshold_, true};
}

void TpdProtocol::position_on(const SortedBook& ranked, Money threshold,
                              const std::vector<OwnDeclaration>& own,
                              AccountFills* out) {
  const Money r = threshold;
  const std::size_t i = ranked.buyers_at_or_above(r);
  const std::size_t j = ranked.sellers_at_or_below(r);
  const std::size_t trades = std::min(i, j);
  // Mirrors clear_sorted's three cases: only the long side's price moves
  // off r, and the trading set is always the rank prefix 1..min(i, j).
  const Money buyer_price = i > j ? ranked.buyer_value(j + 1) : r;
  const Money seller_price = i < j ? ranked.seller_value(i + 1) : r;
  for (const OwnDeclaration& decl : own) {
    if (decl.rank > trades) continue;
    if (decl.side == Side::kBuyer) {
      ++out->bought;
      out->paid += buyer_price;
    } else {
      ++out->sold;
      out->received += seller_price;
    }
  }
}

bool TpdProtocol::account_position(const SortedBook& ranked,
                                   const std::vector<OwnDeclaration>& own,
                                   AccountFills* out) const {
  position_on(ranked, threshold_, own, out);
  return true;
}

}  // namespace fnda
