#include "protocols/kda.h"

#include <algorithm>
#include <cmath>

namespace fnda {

KDoubleAuction::KDoubleAuction(double theta)
    : theta_(std::clamp(theta, 0.0, 1.0)) {}

void KDoubleAuction::fill(const SortedBook& book, Rng&,
                          Outcome& outcome) const {
  const std::size_t k = book.efficient_trade_count();
  if (k == 0) return;
  outcome.reserve(k);

  // p = theta * b(k) + (1 - theta) * s(k), rounded to a micro-unit.
  // b(k) >= s(k), so p lies in [s(k), b(k)] and IR holds on both sides.
  const double bk = static_cast<double>(book.buyer_value(k).micros());
  const double sk = static_cast<double>(book.seller_value(k).micros());
  const Money price = Money::from_micros(
      static_cast<std::int64_t>(std::llround(theta_ * bk + (1.0 - theta_) * sk)));

  for (std::size_t rank = 1; rank <= k; ++rank) {
    outcome.add_buy(book.buyer(rank).id, book.buyer(rank).identity, price);
    outcome.add_sell(book.seller(rank).id, book.seller(rank).identity, price);
  }
}

bool KDoubleAuction::account_position(const SortedBook& ranked,
                                      const std::vector<OwnDeclaration>& own,
                                      AccountFills* out) const {
  const std::size_t k = ranked.efficient_trade_count();
  if (k == 0) return true;
  // Exactly clear_sorted's price arithmetic, so positions match bit-wise.
  const double bk = static_cast<double>(ranked.buyer_value(k).micros());
  const double sk = static_cast<double>(ranked.seller_value(k).micros());
  const Money price = Money::from_micros(static_cast<std::int64_t>(
      std::llround(theta_ * bk + (1.0 - theta_) * sk)));
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
