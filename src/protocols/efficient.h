// Pareto-efficient clearing oracle.
//
// Executes the efficient allocation (ranks (1)..(k) trade, k per Section 3)
// at the uniform price (b(k) + s(k)) / 2, which is individually rational
// and budget balanced.  This protocol is NOT incentive compatible — the
// Myerson–Satterthwaite theorem rules that out — and exists only as the
// denominator for the efficiency ratios the paper reports and as a test
// oracle for allocation optimality.
#pragma once

#include "core/protocol.h"

namespace fnda {

class EfficientClearing final : public DoubleAuctionProtocol {
 public:
  EfficientClearing() = default;

  std::string name() const override { return "efficient"; }

  /// k-family bracket: the midpoint price lies in [s(k), b(k)].
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
