// VCG (Vickrey-Clarke-Groves) double auction.
//
// The third corner of the design space the paper navigates.  VCG executes
// the efficient allocation and charges each winner its Clarke pivot — the
// welfare externality it imposes on everyone else:
//
//   buyer x at winning rank i pays   W(-x) - (W - b(i))
//   seller y at winning rank j gets  (W - s(j) ... ) analogously,
//
// where W is the declared efficient welfare and W(-x) the declared
// efficient welfare with x removed.  This is dominant-strategy incentive
// compatible (without false names) and Pareto efficient, but it runs a
// BUDGET DEFICIT: buyer payments fall short of seller receipts, and the
// auctioneer must inject the difference.  That deficit is exactly why
// McAfee-style trade reduction (PMD) and the paper's threshold pricing
// (TPD) exist; `bench/trilemma` quantifies it.
//
// Outcomes from this protocol intentionally fail the budget-balance
// invariant; validate it with ValidationOptions{.allow_deficit = true}.
#pragma once

#include "core/protocol.h"

namespace fnda {

class VcgDoubleAuction final : public DoubleAuctionProtocol {
 public:
  VcgDoubleAuction() = default;

  std::string name() const override { return "vcg"; }

  /// k-family bracket holds: pay = max(b(k+1), s(k)) >= s(k) and
  /// get = min(s(k+1), b(k)) <= b(k) on every reachable book.
  PriceBracket price_bracket(const SortedBook& ranked,
                             std::size_t extra_declarations) const override {
    return k_double_auction_bracket(ranked, extra_declarations);
  }

  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override;

  /// The Clarke pivot is rank-independent in the single-unit double
  /// auction: every winning buyer pays max(b(k+1), s(k)) and every winning
  /// seller receives min(s(k+1), b(k)).  (Removing a winner either leaves
  /// k trades — the next buyer b(k+1) steps in — or drops to k-1 trades —
  /// the marginal seller s(k) exits; the externality is whichever is
  /// larger.)  Exposed for the tests' brute-force cross-checks.
  static Money buyer_price(const SortedBook& book);
  static Money seller_price(const SortedBook& book);

 private:
  /// Sort-once fast path; `clear` is the inherited sort-and-forward
  /// wrapper.
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override;
};

}  // namespace fnda
