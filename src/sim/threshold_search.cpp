#include "sim/threshold_search.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

#include "common/bucket_rank.h"
#include "common/statistics.h"
#include "common/sweep_kernel.h"

namespace fnda {

namespace {

/// Length of the lane buffer for `buyers` x `sellers`: both lanes plus
/// min(m, n) + 1 prefix sums.  The book keeps its counts in 32 bits.
std::size_t lane_buffer_size(std::size_t buyers, std::size_t sellers) {
  if (std::max(buyers, sellers) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("TpdSweepBook: side longer than 2^32 - 1 bids");
  }
  return buyers + sellers + std::min(buyers, sellers) + 1;
}

/// Ranks one lane of raw micros in `kOrder`: the bucket_rank kernel up to
/// kBucketRankMax values (Table 1's n = m = 50 books), std::sort beyond.
/// Equal micros are indistinguishable, so both give the same lane.
template <RankOrder kOrder>
void rank_lane(std::span<std::int64_t> lane) {
  if (lane.size() <= kBucketRankMax) {
    bucket_rank<kOrder>(lane, [](std::int64_t micros) { return micros; });
  } else if (kOrder == RankOrder::kDescending) {
    std::sort(lane.begin(), lane.end(), std::greater<>());
  } else {
    std::sort(lane.begin(), lane.end());
  }
}

}  // namespace

TpdSweepBook::TpdSweepBook(const SortedBook& book)
    : lanes_(lane_buffer_size(book.buyer_count(), book.seller_count())),
      buyer_count_(static_cast<std::uint32_t>(book.buyer_count())),
      seller_count_(static_cast<std::uint32_t>(book.seller_count())) {
  auto micros = [](const BidEntry& entry) { return entry.value.micros(); };
  const auto sellers = std::transform(book.buyers().begin(),
                                      book.buyers().end(), lanes_.begin(),
                                      micros);
  std::transform(book.sellers().begin(), book.sellers().end(), sellers,
                 micros);
  prepare();
}

TpdSweepBook::TpdSweepBook(const SingleUnitInstance& instance)
    : lanes_(lane_buffer_size(instance.buyer_values.size(),
                              instance.seller_values.size())),
      buyer_count_(static_cast<std::uint32_t>(instance.buyer_values.size())),
      seller_count_(
          static_cast<std::uint32_t>(instance.seller_values.size())) {
  auto micros = [](Money value) { return value.micros(); };
  const auto sellers =
      std::transform(instance.buyer_values.begin(),
                     instance.buyer_values.end(), lanes_.begin(), micros);
  const auto prefix = std::transform(instance.seller_values.begin(),
                                     instance.seller_values.end(), sellers,
                                     micros);
  rank_lane<RankOrder::kDescending>(std::span(lanes_.begin(), sellers));
  rank_lane<RankOrder::kAscending>(std::span(sellers, prefix));
  prepare();
}

void TpdSweepBook::prepare() {
  const std::int64_t* buyers = lanes_.data();
  const std::int64_t* sellers = buyers + buyer_count_;
  std::int64_t* prefix = lanes_.data() + buyer_count_ + seller_count_;
  const std::size_t limit = std::min(buyer_count_, seller_count_);
  prefix[0] = 0;
  for (std::size_t t = 0; t < limit; ++t) {
    prefix[t + 1] = prefix[t] + (buyers[t] - sellers[t]);
  }
  // k = |{t : b(t) >= s(t)}|: b(t) - s(t) never increases with t, so k is
  // a partition point, found by binary search after the prefix pass.
  std::size_t lo = 0;
  std::size_t hi = limit;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (buyers[mid] >= sellers[mid]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  efficient_count_ = static_cast<std::uint32_t>(lo);
}

TpdThresholdOutcome TpdSweepBook::evaluate(Money r) const {
  const std::int64_t* buyers = lanes_.data();
  const std::int64_t* sellers = buyers + buyer_count_;
  const std::int64_t* prefix = sellers + seller_count_;
  // i = |{b >= r}|, j = |{s <= r}|, counted only as far as TPD can tell
  // them apart.  Every traded rank t <= min(i, j) has b(t) >= r >= s(t),
  // so min(i, j) <= k, and i and j cannot both pass k: that would need
  // b(k+1) >= r >= s(k+1).  So each lane is counted over its first k
  // ranks only (the branchless partition count), and one test at rank k + 1
  // per lane says which side, if either, is longer than k.  A test can
  // hold only when its lane's count already reached k (the lanes are
  // sorted), and at most one holds.  The outcome reads i and j only
  // through min(i, j), which one is larger, and the shorter side's
  // count, so it is the same integer as with the full counts.
  const std::int64_t threshold = r.micros();
  const std::size_t k = efficient_count_;
  std::size_t i = simd::count_ge_desc(buyers, k, threshold);
  std::size_t j = simd::count_le_asc(sellers, k, threshold);
  i += static_cast<std::size_t>(k < buyer_count_ && buyers[k] >= threshold);
  j += static_cast<std::size_t>(k < seller_count_ && sellers[k] <= threshold);

  TpdThresholdOutcome outcome;
  outcome.trades = std::min(i, j);
  outcome.total = Money::from_micros(prefix[outcome.trades]);
  if (i > j) {
    // Sellers are the short side: each buyer pays b(j+1) (>= r since
    // j + 1 <= i), each seller receives r.
    outcome.auctioneer = static_cast<std::int64_t>(j) *
                         Money::from_micros(buyers[j] - threshold);
  } else if (i < j) {
    // Buyers are the short side: each buyer pays r, each seller receives
    // s(i+1) (<= r since i + 1 <= j).
    outcome.auctioneer = static_cast<std::int64_t>(i) *
                         Money::from_micros(threshold - sellers[i]);
  }
  return outcome;
}

std::vector<TpdSweepBook> prepare_tpd_sweep(const InstanceGenerator& generator,
                                            std::size_t instances,
                                            std::uint64_t seed) {
  std::vector<TpdSweepBook> books;
  books.reserve(instances);
  Rng rng(seed);
  // One instance, redrawn in place: each book allocates only its lanes.
  SingleUnitInstance instance;
  for (std::size_t run = 0; run < instances; ++run) {
    generator.draw_into(rng, instance);
    books.emplace_back(instance);
  }
  return books;
}

double mean_tpd_objective(std::span<const TpdSweepBook> books, Money r,
                          ThresholdObjective objective) {
  RunningStats stats;
  for (const TpdSweepBook& book : books) {
    stats.add(book.evaluate(r).objective(objective));
  }
  return stats.mean();
}

double expected_tpd_surplus(const InstanceGenerator& generator, Money r,
                            ThresholdObjective objective,
                            std::size_t instances, std::uint64_t seed) {
  const std::vector<TpdSweepBook> books =
      prepare_tpd_sweep(generator, instances, seed);
  return mean_tpd_objective(books, r, objective);
}

ThresholdSearchResult optimize_threshold(const InstanceGenerator& generator,
                                         const ThresholdSearchConfig& config) {
  if (!(config.lo < config.hi) || config.coarse_points < 2 ||
      config.instances_per_eval == 0) {
    throw std::invalid_argument("optimize_threshold: bad config");
  }

  // One instance draw + one rank/prefix pass, shared by the coarse sweep
  // AND every golden-section probe (common random numbers, sort-once).
  const std::vector<TpdSweepBook> books =
      prepare_tpd_sweep(generator, config.instances_per_eval, config.seed);
  auto evaluate = [&](Money r) {
    return mean_tpd_objective(books, r, config.objective);
  };

  ThresholdSearchResult result;
  result.sweep.reserve(config.coarse_points);
  const std::int64_t lo = config.lo.micros();
  const std::int64_t hi = config.hi.micros();
  std::size_t best_index = 0;
  for (std::size_t p = 0; p < config.coarse_points; ++p) {
    const Money r = Money::from_micros(
        lo + (hi - lo) * static_cast<std::int64_t>(p) /
                 static_cast<std::int64_t>(config.coarse_points - 1));
    const double value = evaluate(r);
    result.sweep.emplace_back(r, value);
    if (value > result.sweep[best_index].second) best_index = p;
  }

  // Golden-section refinement on the bracket around the best coarse point.
  const Money bracket_lo =
      result.sweep[best_index == 0 ? 0 : best_index - 1].first;
  const Money bracket_hi =
      result.sweep[std::min(best_index + 1, result.sweep.size() - 1)].first;

  constexpr double kInvPhi = 0.6180339887498949;
  double a = static_cast<double>(bracket_lo.micros());
  double b = static_cast<double>(bracket_hi.micros());
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = evaluate(Money::from_micros(static_cast<std::int64_t>(c)));
  double fd = evaluate(Money::from_micros(static_cast<std::int64_t>(d)));
  for (std::size_t it = 0; it < config.refine_iterations && b - a > 1.0; ++it) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = evaluate(Money::from_micros(static_cast<std::int64_t>(c)));
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = evaluate(Money::from_micros(static_cast<std::int64_t>(d)));
    }
  }

  const Money refined = Money::from_micros(static_cast<std::int64_t>((a + b) / 2.0));
  const double refined_value = evaluate(refined);
  const auto& coarse_best = result.sweep[best_index];
  if (refined_value >= coarse_best.second) {
    result.best_threshold = refined;
    result.best_value = refined_value;
  } else {
    result.best_threshold = coarse_best.first;
    result.best_value = coarse_best.second;
  }
  return result;
}

}  // namespace fnda
