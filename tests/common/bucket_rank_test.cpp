#include "common/bucket_rank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fnda {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Keys in [lo, hi] in rank order: both endpoints, their neighbours and
/// evenly spaced and random keys in between.
template <RankOrder kOrder>
std::vector<std::int64_t> ranked_keys(std::int64_t lo, std::int64_t hi,
                                      Rng& rng) {
  const auto ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - ulo;
  std::vector<std::int64_t> keys = {lo, hi};
  if (span > 1) keys.insert(keys.end(), {lo + 1, hi - 1});
  for (std::uint64_t step = 1; step < 64; ++step) {
    keys.push_back(static_cast<std::int64_t>(ulo + span / 64 * step));
  }
  for (int draw = 0; draw < 200; ++draw) {
    keys.push_back(static_cast<std::int64_t>(ulo + rng() % span));
  }
  if (kOrder == RankOrder::kAscending) {
    std::sort(keys.begin(), keys.end());
  } else {
    std::sort(keys.begin(), keys.end(), std::greater<>());
  }
  return keys;
}

template <RankOrder kOrder>
void expect_monotone_from_zero(std::int64_t lo, std::int64_t hi, Rng& rng) {
  const RankBucketMap<kOrder> bucket_of(lo, hi);
  const std::vector<std::int64_t> keys = ranked_keys<kOrder>(lo, hi, rng);
  SCOPED_TRACE(testing::Message()
               << (kOrder == RankOrder::kAscending ? "ascending" : "descending")
               << " lo=" << lo << " hi=" << hi);
  EXPECT_EQ(bucket_of(keys.front()), 0u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(bucket_of(keys[i - 1]), bucket_of(keys[i])) << keys[i];
    ASSERT_LT(bucket_of(keys[i]), RankBucketMap<kOrder>::kRankBuckets);
  }
}

TEST(RankBucketMapTest, FirstRankIsBucketZeroAndTheMapNeverDecreases) {
  // Spans from 1 to all of int64, including those where hi - lo overflows
  // signed arithmetic (lo < 0 < hi with hi - lo > kMax).
  const std::vector<std::pair<std::int64_t, std::int64_t>> lanes = {
      {0, 1},
      {0, 63},
      {-5, 5},
      {0, 100'000'000},
      {-1'000'000'000, -1},
      {kMin, kMin + 1},
      {kMax - 1, kMax},
      {kMin, 0},
      {-1, kMax},
      {kMin / 2 - 1, kMax / 2 + 2},
      {kMin, kMax}};
  Rng rng(0xb0c4e7);
  for (const auto& [lo, hi] : lanes) {
    expect_monotone_from_zero<RankOrder::kAscending>(lo, hi, rng);
    expect_monotone_from_zero<RankOrder::kDescending>(lo, hi, rng);
  }
  // The full int64 span uses every bucket.
  EXPECT_EQ(RankBucketMap<RankOrder::kAscending>(kMin, kMax)(kMax), 63u);
  EXPECT_EQ(RankBucketMap<RankOrder::kDescending>(kMin, kMax)(kMin), 63u);
}

struct Tagged {
  std::int64_t key;
  std::size_t tag;  // input position, to tell equal keys apart

  friend bool operator==(const Tagged&, const Tagged&) = default;
};

template <RankOrder kOrder>
void expect_matches_stable_sort(std::vector<Tagged> lane) {
  std::vector<Tagged> oracle = lane;
  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return kOrder == RankOrder::kAscending ? a.key < b.key
                                                            : a.key > b.key;
                   });
  bucket_rank<kOrder>(std::span<Tagged>(lane),
                      [](const Tagged& entry) { return entry.key; });
  EXPECT_EQ(lane, oracle);
}

TEST(BucketRankTest, MatchesStableSortAtEverySizeAndSpan) {
  Rng rng(0x5ca77e);
  for (std::size_t n = 0; n <= kBucketRankMax; ++n) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<Tagged> lane;
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t key = 0;
        switch (shape) {
          case 0:  // distinct-ish, one bucket each on average
            key = static_cast<std::int64_t>(rng.below(1'000'000));
            break;
          case 1:  // dense ties
            key = static_cast<std::int64_t>(rng.below(4)) - 2;
            break;
          case 2:  // one outlier, the rest in one bucket
            key = i == 0 ? kMax : static_cast<std::int64_t>(rng.below(8));
            break;
          default:  // the int64 limits and the whole range between
            key = rng.below(3) == 0 ? (rng.below(2) == 0 ? kMin : kMax)
                                    : static_cast<std::int64_t>(rng());
            break;
        }
        lane.push_back({key, i});
      }
      SCOPED_TRACE(testing::Message() << "n=" << n << " shape " << shape);
      expect_matches_stable_sort<RankOrder::kAscending>(lane);
      expect_matches_stable_sort<RankOrder::kDescending>(lane);
    }
  }
}

}  // namespace
}  // namespace fnda
