// Online threshold adaptation across rounds (Section 8's future work,
// operationalised).
//
// The TPD auctioneer must fix r before each round's bids, but nothing
// stops it from learning across rounds: past declarations are sunk, and
// in the exchange model every round's identities are fresh, so a one-shot
// bidder cannot profit by distorting today's bid to move tomorrow's
// threshold.  (With long-lived patient bidders this assumption weakens —
// documented, not hidden.)
//
// Two estimators are available:
//
//   1. Clearing-midpoint tracking (the default `observe` update): the
//      midpoint of the marginal pair (b(k), s(k)) is where supply meets
//      demand, which for symmetric markets is exactly the
//      surplus-maximising threshold.  Exponential smoothing filters
//      sampling noise.
//   2. Sweep recalibration (`recalibrate`): with a window of recent books
//      retained (see `set_window_capacity`), the policy evaluates a
//      candidate grid against the whole window through
//      `TpdSweepBook::evaluate` (two branchless partition counts over the
//      first k ranks plus one rank-(k + 1) test per candidate per book,
//      k the book's efficient trade count) and jumps to the empirical
//      argmax.  This is the direct "optimise the threshold online"
//      answer and handles asymmetric markets where the midpoint
//      heuristic is biased.
#pragma once

#include <deque>
#include <span>

#include "common/money.h"
#include "core/order_book.h"
#include "sim/threshold_search.h"

namespace fnda {

class AdaptiveThresholdPolicy {
 public:
  /// `smoothing` in (0, 1]: weight of the newest observation.
  AdaptiveThresholdPolicy(Money initial, double smoothing = 0.25);

  /// The threshold to announce for the next round.
  Money current() const { return current_; }

  /// Feeds one completed round's declared book.  Books with no crossing
  /// pair carry no clearing-price information and are ignored by the
  /// midpoint update but still enter the sweep window (a book that
  /// cannot clear is evidence about the value distribution too).
  void observe(const SortedBook& book);

  std::size_t observations() const { return observations_; }

  /// Enables the sweep window: the most recent `capacity` observed books
  /// are retained (preprocessed for the kernel).  Zero (the default)
  /// disables retention.
  void set_window_capacity(std::size_t capacity);
  std::size_t window_size() const { return window_.size(); }

  /// Jumps the threshold to the candidate maximising the chosen objective
  /// averaged over the retained window, and returns it.  With an empty
  /// window (or empty candidate list) the threshold is left unchanged.
  Money recalibrate(std::span<const Money> candidates,
                    ThresholdObjective objective =
                        ThresholdObjective::kTotalSurplus);

 private:
  Money current_;
  double smoothing_;
  std::size_t observations_ = 0;
  std::size_t window_capacity_ = 0;
  std::deque<TpdSweepBook> window_;
};

}  // namespace fnda
