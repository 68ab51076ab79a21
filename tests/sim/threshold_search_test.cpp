#include "sim/threshold_search.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/fnv.h"

namespace fnda {
namespace {

TEST(ThresholdSearchTest, ExpectedSurplusIsDeterministic) {
  const InstanceGenerator gen = fixed_count_generator(20, 20);
  const double a = expected_tpd_surplus(gen, money(50),
                                        ThresholdObjective::kTotalSurplus,
                                        50, 42);
  const double b = expected_tpd_surplus(gen, money(50),
                                        ThresholdObjective::kTotalSurplus,
                                        50, 42);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.0);
}

TEST(ThresholdSearchTest, CenterBeatsExtremesForUniformValues) {
  // Figure 1: the surplus curve peaks near 50 for U[0,100] valuations.
  const InstanceGenerator gen = fixed_count_generator(30, 30);
  auto value_at = [&](double r) {
    return expected_tpd_surplus(gen, money(r),
                                ThresholdObjective::kTotalSurplus, 150, 7);
  };
  const double center = value_at(50);
  EXPECT_GT(center, value_at(10));
  EXPECT_GT(center, value_at(90));
  EXPECT_GT(center, value_at(30));
  EXPECT_GT(center, value_at(70));
}

TEST(ThresholdSearchTest, OptimizerFindsNearFifty) {
  ThresholdSearchConfig config;
  config.instances_per_eval = 150;
  config.coarse_points = 11;
  const ThresholdSearchResult result =
      optimize_threshold(fixed_count_generator(30, 30), config);
  EXPECT_NEAR(result.best_threshold.to_double(), 50.0, 8.0);
  EXPECT_GT(result.best_value, 0.0);
  EXPECT_EQ(result.sweep.size(), 11u);
}

TEST(ThresholdSearchTest, SweepCoversRequestedRange) {
  ThresholdSearchConfig config;
  config.lo = money(20);
  config.hi = money(80);
  config.coarse_points = 7;
  config.instances_per_eval = 30;
  const ThresholdSearchResult result =
      optimize_threshold(fixed_count_generator(10, 10), config);
  ASSERT_EQ(result.sweep.size(), 7u);
  EXPECT_EQ(result.sweep.front().first, money(20));
  EXPECT_EQ(result.sweep.back().first, money(80));
  for (std::size_t p = 1; p < result.sweep.size(); ++p) {
    EXPECT_LT(result.sweep[p - 1].first, result.sweep[p].first);
  }
}

TEST(ThresholdSearchTest, BestValueIsSweepMaximumOrBetter) {
  ThresholdSearchConfig config;
  config.instances_per_eval = 60;
  config.coarse_points = 9;
  const ThresholdSearchResult result =
      optimize_threshold(fixed_count_generator(15, 15), config);
  for (const auto& [r, value] : result.sweep) {
    EXPECT_GE(result.best_value, value);
  }
}

TEST(ThresholdSearchTest, ExceptAuctioneerObjectivePeaksNearCenterToo) {
  ThresholdSearchConfig config;
  config.objective = ThresholdObjective::kSurplusExceptAuctioneer;
  config.instances_per_eval = 100;
  config.coarse_points = 11;
  const ThresholdSearchResult result =
      optimize_threshold(fixed_count_generator(30, 30), config);
  EXPECT_NEAR(result.best_threshold.to_double(), 50.0, 10.0);
}

TEST(ThresholdSearchTest, RejectsBadConfig) {
  ThresholdSearchConfig config;
  config.lo = money(60);
  config.hi = money(40);
  EXPECT_THROW(optimize_threshold(fixed_count_generator(5, 5), config),
               std::invalid_argument);
  config.lo = money(0);
  config.hi = money(100);
  config.coarse_points = 1;
  EXPECT_THROW(optimize_threshold(fixed_count_generator(5, 5), config),
               std::invalid_argument);
  // A search over no instances would report an answer computed from
  // nothing (every candidate scores 0.0).
  config = ThresholdSearchConfig{};
  config.instances_per_eval = 0;
  EXPECT_THROW(optimize_threshold(fixed_count_generator(5, 5), config),
               std::invalid_argument);
}

TEST(ThresholdSearchTest, SweepBookStaysSmall) {
  // The efficient trade count rides in the padding of 32-bit counts: one
  // lane vector plus 16 bytes, 40 on LP64.
  EXPECT_LE(sizeof(TpdSweepBook), sizeof(std::vector<std::int64_t>) + 16);
}

// Golden pins of the sweep's outputs.  Every value below was recorded from
// the full-lane evaluation (both lanes counted at every threshold); the
// sweep must keep reproducing them bit for bit.

TEST(ThresholdSearchGoldenTest, OptimizerResultIsPinned) {
  struct Pin {
    ThresholdObjective objective;
    std::int64_t threshold_micros;
    std::uint64_t value_bits;
  };
  for (const Pin& pin :
       {Pin{ThresholdObjective::kTotalSurplus, 49'215'060,
            0x4086f3b8fff4a5bcull},  // 734.4653319466665
        Pin{ThresholdObjective::kSurplusExceptAuctioneer, 50'540'382,
            0x408391a3e05e6bb6ull}}) {  // 626.2050177933331
    ThresholdSearchConfig config;
    config.instances_per_eval = 150;
    config.coarse_points = 11;
    config.objective = pin.objective;
    const ThresholdSearchResult result =
        optimize_threshold(fixed_count_generator(30, 30), config);
    SCOPED_TRACE(static_cast<int>(pin.objective));
    EXPECT_EQ(result.best_threshold.micros(), pin.threshold_micros);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.best_value), pin.value_bits);
  }
}

/// FNV-1a over the bits of both objectives at r = 0, 1, ..., 100 units.
std::uint64_t curve_digest(std::size_t participants, std::size_t instances) {
  const std::vector<TpdSweepBook> books = prepare_tpd_sweep(
      fixed_count_generator(participants, participants), instances, 2001);
  std::uint64_t digest = kFnvOffsetBasis;
  for (int r = 0; r <= 100; ++r) {
    for (const ThresholdObjective objective :
         {ThresholdObjective::kTotalSurplus,
          ThresholdObjective::kSurplusExceptAuctioneer}) {
      fnv1a_fold(digest, std::bit_cast<std::uint64_t>(
                             mean_tpd_objective(books, money(r), objective)));
    }
  }
  return digest;
}

TEST(ThresholdSearchGoldenTest, CurveDigestIsPinned) {
  // n = m = 50 ranks lanes with the bucket kernel, n = m = 500 with
  // std::sort.
  EXPECT_EQ(curve_digest(50, 200), 0x09c609184a19ffc7ull);
  EXPECT_EQ(curve_digest(500, 40), 0xd9b8abfdf5f9c6abull);
}

}  // namespace
}  // namespace fnda
