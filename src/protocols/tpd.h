// TPD: the Threshold Price Double auction protocol — the paper's
// contribution (Section 5).
//
// The auctioneer fixes a threshold price r *before* seeing any declaration.
// With i = #{buyers with b >= r} and j = #{sellers with s <= r}:
//
//   1. i == j:  ranks (1)..(i) trade; both sides at price r.
//   2. i  > j:  ranks (1)..(j) trade; buyers pay b(j+1), sellers get r;
//               the auctioneer keeps j * (b(j+1) - r).
//   3. i  < j:  ranks (1)..(i) trade; buyers pay r, sellers get s(i+1);
//               the auctioneer keeps i * (r - s(i+1)).
//
// TPD is dominant-strategy incentive compatible even when participants can
// submit false-name bids (Theorem 1), at the cost of handing the spread to
// the auctioneer when the market is unbalanced around r.
#pragma once

#include "core/protocol.h"

namespace fnda {

class TpdProtocol final : public DoubleAuctionProtocol {
 public:
  /// `threshold` is the paper's r.  It must be announced independently of
  /// the declarations; this class simply holds the chosen value.
  explicit TpdProtocol(Money threshold);

  std::string name() const override { return "tpd"; }

  /// TPD prices bracket at the threshold from both sides: a buyer pays r
  /// or b(j+1) >= r, a seller receives r or s(i+1) <= r, regardless of how
  /// many declarations are added.  The bracket is therefore exact and
  /// independent of `extra_declarations` — TPD prunes tightest of all.
  PriceBracket price_bracket(const SortedBook& ranked,
                             std::size_t extra_declarations) const override;

  /// O(log n + |own|): the trade cutoff is min(i, j) and both prices are
  /// rank statistics, so one account's fills need no Outcome at all.
  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override;

  Money threshold() const { return threshold_; }

  /// `account_position` core, shared with TpdWithRebates' trade half.
  static void position_on(const SortedBook& ranked, Money threshold,
                          const std::vector<OwnDeclaration>& own,
                          AccountFills* out);

 private:
  /// Sort-once fast path: TPD is a pure function of the ranking, so the
  /// inherited `clear` wrapper (sort, then forward here) is the raw-book
  /// entry point.
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override;

  Money threshold_;
};

}  // namespace fnda
