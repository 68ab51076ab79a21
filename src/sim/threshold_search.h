// Threshold-price optimisation (the "future work" of Section 8).
//
// The TPD auctioneer must fix r before seeing bids; its only lever is the
// value *distribution*.  This module estimates the expected-surplus curve
// r -> E[surplus(TPD_r)] by Monte Carlo with common random numbers (the
// same instance set for every candidate r, so the curve is smooth and
// comparable), then refines the best coarse grid point by golden-section
// search.
//
// The estimator rides an incremental sweep kernel rather than re-clearing
// the book per candidate: TPD's outcome at threshold r depends only on
// the counts i = |{b >= r}|, j = |{s <= r}| over ONE ranked book, so after
// an O(n log n) preparation (rank + prefix-sum the pairwise surpluses,
// find the efficient trade count k) every candidate threshold costs two
// partition counts over the first k ranks of each lane plus one test at
// rank k + 1: TPD never trades past rank k, so the ranks beyond k + 1
// cannot change its outcome.  A T-candidate sweep over N instances is
// O(N * (n log n + T log k)) instead of the naive O(T * N * n log n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/money.h"
#include "core/order_book.h"
#include "sim/generators.h"

namespace fnda {

enum class ThresholdObjective {
  kTotalSurplus,            ///< include the auctioneer's revenue
  kSurplusExceptAuctioneer  ///< what the traders keep (Figure 1's lower curve)
};

/// TPD's surplus decomposition at one threshold on one book, in exact
/// fixed-point arithmetic (truthful declarations, so declared surplus is
/// realized surplus).
struct TpdThresholdOutcome {
  Money total;       ///< sum of (b - s) over executed trades
  Money auctioneer;  ///< revenue kept by the budget balancer
  std::size_t trades = 0;

  Money except_auctioneer() const { return total - auctioneer; }
  double objective(ThresholdObjective objective) const {
    return (objective == ThresholdObjective::kTotalSurplus
                ? total
                : except_auctioneer())
        .to_double();
  }
};

/// One instance preprocessed for O(log k)-per-threshold TPD evaluation:
/// ranked buyer/seller values, prefix sums of the pairwise surpluses
/// b(t) - s(t), and the efficient trade count k.
class TpdSweepBook {
 public:
  TpdSweepBook() = default;
  /// From an already-ranked book (values are copied out; identities and
  /// tie order are irrelevant to surplus).
  explicit TpdSweepBook(const SortedBook& book);
  /// Directly from an instance's true values (truthful declaration —
  /// skips book instantiation entirely).
  explicit TpdSweepBook(const SingleUnitInstance& instance);

  /// TPD at threshold r on this book: two partition-point counts over
  /// the first k ranks of each lane (common/sweep_kernel.h, one portable
  /// loop), one test per lane at rank k + 1, and O(1) arithmetic.  The
  /// same integers as counting both full lanes, on every input.
  TpdThresholdOutcome evaluate(Money r) const;

  std::size_t buyer_count() const { return buyer_count_; }
  std::size_t seller_count() const { return seller_count_; }

 private:
  /// Fills the prefix sums behind the two ranked lanes, then finds k.
  void prepare();

  /// One buffer of raw micros laid out as [buyers desc | sellers asc |
  /// prefix]: b(1) >= b(2) >= ..., then s(1) <= s(2) <= ..., then
  /// prefix[t] = sum_{rank=1..t} (b(rank) - s(rank)) for t in
  /// [0, min(m, n)].  Dense int64 lanes are what the branchless partition
  /// counts (common/sweep_kernel.h) consume, and one buffer is
  /// one allocation per book.  Both full lanes stay stored: evaluate
  /// reads only ranks <= k + 1, but a buffer trimmed to them costs more
  /// to free than it saves.
  std::vector<std::int64_t> lanes_;
  /// 32-bit counts keep the object at 40 bytes with k, the largest t
  /// with b(t) >= s(t) (SortedBook::efficient_trade_count), beside them.
  std::uint32_t buyer_count_ = 0;
  std::uint32_t seller_count_ = 0;
  std::uint32_t efficient_count_ = 0;
};

/// Draws `instances` books from `generator` (same stream for every later
/// threshold query — common random numbers) and preprocesses each for the
/// sweep kernel.
std::vector<TpdSweepBook> prepare_tpd_sweep(const InstanceGenerator& generator,
                                            std::size_t instances,
                                            std::uint64_t seed);

/// Mean objective of TPD at threshold r over a prepared instance set.
double mean_tpd_objective(std::span<const TpdSweepBook> books, Money r,
                          ThresholdObjective objective);

struct ThresholdSearchConfig {
  Money lo = Money::from_units(0);
  Money hi = Money::from_units(100);
  std::size_t coarse_points = 21;
  std::size_t instances_per_eval = 200;
  std::size_t refine_iterations = 24;
  ThresholdObjective objective = ThresholdObjective::kTotalSurplus;
  std::uint64_t seed = 7;
};

struct ThresholdSearchResult {
  Money best_threshold;
  double best_value = 0.0;
  /// The coarse sweep, in threshold order (useful for plotting).
  std::vector<std::pair<Money, double>> sweep;
};

/// Estimates E[objective] for TPD at threshold r under `generator`.
double expected_tpd_surplus(const InstanceGenerator& generator, Money r,
                            ThresholdObjective objective,
                            std::size_t instances, std::uint64_t seed);

/// Coarse sweep + golden-section refinement.  The instance set is drawn
/// once and shared by every candidate evaluation (common random numbers
/// AND a single sort per instance).
ThresholdSearchResult optimize_threshold(const InstanceGenerator& generator,
                                         const ThresholdSearchConfig& config);

}  // namespace fnda
