// The naive randomized-threshold protocol discussed in Section 8.
//
// Fix a threshold price r; buyers with b >= r and sellers with s <= r are
// eligible; t = min(#eligible buyers, #eligible sellers) trades execute at
// price r between uniformly random eligible participants on each side.
//
// Without false-name bids this is trivially dominant-strategy incentive
// compatible (your declaration only gates eligibility, never the price).
// With false-name bids it is NOT: a buyer can submit many buyer bids to
// raise the probability that one of its names is drawn — exactly the
// lottery-stuffing attack the paper uses to motivate why robustness is a
// non-trivial property.  The mechanism/ layer demonstrates the attack.
#pragma once

#include "core/protocol.h"

namespace fnda {

class RandomThresholdProtocol final : public DoubleAuctionProtocol {
 public:
  explicit RandomThresholdProtocol(Money threshold);

  std::string name() const override { return "random-threshold"; }

  /// Every trade executes at exactly r regardless of how many extra
  /// declarations arrive, so the bracket degenerates to {r, r}.  The
  /// bound holds per lottery realization, hence in expectation too.
  /// No `account_position` override: the allocation consumes the rng
  /// stream, so positions cannot be recovered without replaying it.
  PriceBracket price_bracket(const SortedBook&,
                             std::size_t /*extra_declarations*/) const override {
    return PriceBracket{threshold_, threshold_, true};
  }

  Money threshold() const { return threshold_; }

 private:
  /// Sort-once fast path: the eligible sets are exactly the top
  /// `buyers_at_or_above(r)` / `sellers_at_or_below(r)` ranks, so the
  /// lottery draws directly from rank prefixes.  `rng` supplies the
  /// lottery only (tie-breaking is frozen into the ranking); `clear` is
  /// the inherited sort-and-forward wrapper.
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override;

  Money threshold_;
};

}  // namespace fnda
