// k-double auction (Chatterjee-Samuelson 1983, generalized).
//
// Executes the efficient allocation at the uniform price
//     p = theta * b(k) + (1 - theta) * s(k),  theta in [0, 1],
// i.e. a convex split of the marginal pair's surplus.  Budget balanced,
// individually rational, Pareto efficient on declared values — and NOT
// incentive compatible, even without false names: the marginal buyer can
// shade its bid to pull p down, the marginal seller can inflate to push
// it up (Myerson-Satterthwaite says something must give).  This is the
// classic pre-McAfee baseline; `bench/trilemma` and the mechanism tests
// use it to show why PMD/TPD sacrifice efficiency instead.
#pragma once

#include "core/protocol.h"

namespace fnda {

class KDoubleAuction final : public DoubleAuctionProtocol {
 public:
  /// `theta` is the buyer's share of the marginal pair's price weight,
  /// clamped to [0, 1].  theta = 0.5 is the split-the-difference auction.
  explicit KDoubleAuction(double theta = 0.5);

  std::string name() const override { return "kda"; }

  /// k-family bracket: p lies in [s(k), b(k)] by construction.
  PriceBracket price_bracket(const SortedBook& ranked,
                             std::size_t extra_declarations) const override {
    return k_double_auction_bracket(ranked, extra_declarations);
  }

  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override;

  double theta() const { return theta_; }

 private:
  /// Sort-once fast path; `clear` is the inherited sort-and-forward
  /// wrapper.
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override;

  double theta_;
};

}  // namespace fnda
