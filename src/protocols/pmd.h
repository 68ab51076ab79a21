// PMD: Preston McAfee's dominant-strategy double auction (McAfee 1992),
// as described in Section 3 of the paper.
//
// With order statistics b(1) >= ... >= b(m), s(1) <= ... <= s(n), sentinels
// b(m+1) = lowest possible value and s(n+1) = highest possible value, and
// k = max{ i : b(i) >= s(i) }, the candidate price is
// p0 = (b(k+1) + s(k+1)) / 2 and the rule is:
//
//   1. if s(k) <= p0 <= b(k):  ranks (1)..(k) trade at p0 (budget balanced);
//   2. otherwise:              ranks (1)..(k-1) trade; each buyer pays b(k),
//                              each seller receives s(k); the auctioneer
//                              keeps (k-1) * (b(k) - s(k)).
//
// PMD is dominant-strategy incentive compatible when false-name bids are
// impossible, and is the baseline the paper's Section 4 examples attack.
#pragma once

#include "core/protocol.h"

namespace fnda {

class PmdProtocol final : public DoubleAuctionProtocol {
 public:
  PmdProtocol() = default;

  std::string name() const override { return "pmd"; }

  /// k-double-auction family bracket: buyers never pay below s(k) (p0 and
  /// b(k) both dominate it), sellers never receive above b(k).
  PriceBracket price_bracket(const SortedBook& ranked,
                             std::size_t extra_declarations) const override {
    return k_double_auction_bracket(ranked, extra_declarations);
  }

  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override;

 private:
  /// Sort-once fast path; `clear` is the inherited sort-and-forward
  /// wrapper.
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override;
};

}  // namespace fnda
