// Exactness suite for the threshold-sweep counting kernel.
//
// The sorted-lane entry points (count_ge_desc / count_le_asc) must return
// the partition point std::partition_point returns, and the linear count
// detail::count_above the count std::count_if returns, on every input:
// random, adversarial and all-equal lanes, the int64 extremes, windows
// whose spread overflows int64 and lanes hugging one limit.  The standard
// algorithms are the scalar reference the test names refer to.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sweep_kernel.h"

namespace fnda {
namespace {

std::vector<std::int64_t> random_lane(Rng& rng, std::size_t n,
                                      std::int64_t lo, std::int64_t hi,
                                      bool descending) {
  std::vector<std::int64_t> lane;
  lane.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lane.push_back(lo + static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>(hi - lo + 1))));
  }
  std::sort(lane.begin(), lane.end());
  if (descending) std::reverse(lane.begin(), lane.end());
  return lane;
}

/// Thresholds worth probing for a lane: every element, its neighbors, and
/// far out-of-range sentinels — the boundary cases of a partition point.
std::vector<std::int64_t> probe_thresholds(const std::vector<std::int64_t>& lane) {
  std::vector<std::int64_t> probes{std::numeric_limits<std::int64_t>::min() / 2,
                                   std::numeric_limits<std::int64_t>::max() / 2,
                                   0, 1, -1};
  for (const std::int64_t v : lane) {
    probes.push_back(v);
    probes.push_back(v - 1);
    probes.push_back(v + 1);
  }
  return probes;
}

TEST(SweepKernelTest, LinearCountsMatchScalarOnUnsortedWindows) {
  Rng rng(0x5eedbeef);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{5}, std::size_t{8},
                              std::size_t{13}, std::size_t{64},
                              std::size_t{127}, std::size_t{128},
                              std::size_t{129}, std::size_t{1000}}) {
    std::vector<std::int64_t> window;
    window.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      window.push_back(static_cast<std::int64_t>(rng.below(2000)) - 1000);
    }
    for (const std::int64_t r :
         {std::int64_t{-1500}, std::int64_t{-1}, std::int64_t{0},
          std::int64_t{1}, std::int64_t{999}, std::int64_t{1500}}) {
      // v > pivot for pivot = r and pivot = r - 1 (v >= r).
      for (const std::int64_t pivot : {r, r - 1}) {
        const auto expected = static_cast<std::size_t>(
            std::count_if(window.begin(), window.end(),
                          [pivot](std::int64_t v) { return v > pivot; }));
        EXPECT_EQ(simd::detail::count_above(
                      window.data(), n, static_cast<std::uint64_t>(pivot)),
                  expected)
            << "n=" << n << " pivot=" << pivot;
      }
    }
  }
}

/// std::partition_point's |{v >= r}| over a descending lane.
std::size_t expected_ge(const std::vector<std::int64_t>& desc,
                        std::int64_t r) {
  return static_cast<std::size_t>(
      std::partition_point(desc.begin(), desc.end(),
                           [r](std::int64_t v) { return v >= r; }) -
      desc.begin());
}

/// std::partition_point's |{v <= r}| over an ascending lane.
std::size_t expected_le(const std::vector<std::int64_t>& asc,
                        std::int64_t r) {
  return static_cast<std::size_t>(
      std::partition_point(asc.begin(), asc.end(),
                           [r](std::int64_t v) { return v <= r; }) -
      asc.begin());
}

TEST(SweepKernelTest, PartitionPointsMatchScalarOnRandomSortedLanes) {
  Rng rng(0xabcdef01);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{127},
        std::size_t{128}, std::size_t{129}, std::size_t{500},
        std::size_t{2048}, std::size_t{4097}}) {
    const std::vector<std::int64_t> desc = random_lane(rng, n, -50, 50, true);
    const std::vector<std::int64_t> asc = random_lane(rng, n, -50, 50, false);
    for (const std::int64_t r : probe_thresholds(desc)) {
      EXPECT_EQ(simd::count_ge_desc(desc.data(), n, r), expected_ge(desc, r))
          << "n=" << n << " r=" << r;
    }
    for (const std::int64_t r : probe_thresholds(asc)) {
      EXPECT_EQ(simd::count_le_asc(asc.data(), n, r), expected_le(asc, r))
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(SweepKernelTest, PartitionPointsMatchLowerBoundSemantics) {
  // Every threshold across a narrow value range, so every partition
  // point of both lanes is reached.
  Rng rng(0x77777777);
  for (const std::size_t n : {std::size_t{129}, std::size_t{2500}}) {
    const std::vector<std::int64_t> desc = random_lane(rng, n, 0, 30, true);
    const std::vector<std::int64_t> asc = random_lane(rng, n, 0, 30, false);
    for (std::int64_t r = -2; r <= 32; ++r) {
      EXPECT_EQ(simd::count_ge_desc(desc.data(), n, r), expected_ge(desc, r));
      EXPECT_EQ(simd::count_le_asc(asc.data(), n, r), expected_le(asc, r));
    }
  }
}

TEST(SweepKernelTest, AdversarialLanes) {
  // All-equal lanes put every element on the partition boundary; the
  // extreme thresholds exercise empty and full counts at sizes that
  // straddle the four-sum step and the linear window.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{127}, std::size_t{128},
        std::size_t{129}, std::size_t{2000}}) {
    const std::vector<std::int64_t> flat(n, 42);
    for (const std::int64_t r :
         {std::int64_t{41}, std::int64_t{42}, std::int64_t{43}}) {
      const std::size_t ge = simd::count_ge_desc(flat.data(), n, r);
      const std::size_t le = simd::count_le_asc(flat.data(), n, r);
      EXPECT_EQ(ge, r <= 42 ? n : 0u) << "n=" << n << " r=" << r;
      EXPECT_EQ(le, r >= 42 ? n : 0u) << "n=" << n << " r=" << r;
      EXPECT_EQ(ge, expected_ge(flat, r));
      EXPECT_EQ(le, expected_le(flat, r));
    }
  }
}

TEST(SweepKernelTest, ExtremeValuesDoNotOverflow) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> desc{max, max, 0, min + 1, min};
  const std::vector<std::int64_t> asc(desc.rbegin(), desc.rend());
  for (const std::int64_t r : {min, min + 1, std::int64_t{-1}, std::int64_t{0},
                               std::int64_t{1}, max - 1, max}) {
    EXPECT_EQ(simd::count_ge_desc(desc.data(), desc.size(), r),
              expected_ge(desc, r))
        << "r=" << r;
    EXPECT_EQ(simd::count_le_asc(asc.data(), asc.size(), r),
              expected_le(asc, r))
        << "r=" << r;
  }
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Sizes around the four-sum step and its two-lane vector, sizes whose tail
/// is 3, 0 and 1 entries past a 4-wide step, and one lane long enough to
/// narrow the bracket before counting.
const std::size_t kEdgeSizes[] = {0, 1, 2, 3, 4, 5, 63, 64, 65, 500};

/// Every element and its neighbours (saturated at the int64 limits), and
/// both limits themselves: each window endpoint +-1 is among them.
std::vector<std::int64_t> edge_thresholds(
    const std::vector<std::int64_t>& lane) {
  std::vector<std::int64_t> probes{kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (const std::int64_t v : lane) {
    probes.push_back(v);
    probes.push_back(v == kMin ? v : v - 1);
    probes.push_back(v == kMax ? v : v + 1);
  }
  return probes;
}

/// Sorted lane whose values sit within 3 of the given anchors, so runs of
/// ties meet the extremes.
std::vector<std::int64_t> anchored_lane(
    Rng& rng, std::size_t n, const std::vector<std::int64_t>& anchors,
    bool descending) {
  std::vector<std::int64_t> lane;
  lane.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t anchor = anchors[rng.below(anchors.size())];
    const auto offset = static_cast<std::int64_t>(rng.below(4));
    lane.push_back(anchor == kMax ? anchor - offset : anchor + offset);
  }
  std::sort(lane.begin(), lane.end());
  if (descending) std::reverse(lane.begin(), lane.end());
  return lane;
}

/// The kernel and std::partition_point agree on both lanes at every edge
/// threshold.
void expect_edge_counts_match(const std::vector<std::int64_t>& desc,
                              const std::vector<std::int64_t>& asc,
                              const char* label) {
  for (const std::int64_t r : edge_thresholds(desc)) {
    EXPECT_EQ(simd::count_ge_desc(desc.data(), desc.size(), r),
              expected_ge(desc, r))
        << label << " n=" << desc.size() << " r=" << r;
  }
  for (const std::int64_t r : edge_thresholds(asc)) {
    EXPECT_EQ(simd::count_le_asc(asc.data(), asc.size(), r),
              expected_le(asc, r))
        << label << " n=" << asc.size() << " r=" << r;
  }
}

TEST(SweepKernelTest, WindowEndpointThresholdsMatchScalar) {
  // The endpoint guard returns early just outside a window and hands the
  // rest to the subtract-and-shift count: probe both sides of each
  // endpoint, and the int64 limits, at every edge size.
  Rng rng(0xed6e0001);
  for (const std::size_t n : kEdgeSizes) {
    expect_edge_counts_match(random_lane(rng, n, -50, 50, true),
                             random_lane(rng, n, -50, 50, false), "small");
    expect_edge_counts_match(
        random_lane(rng, n, 0, 100'000'000, true),
        random_lane(rng, n, 0, 100'000'000, false), "micros");
  }
}

TEST(SweepKernelTest, OverflowingSpreadFallsBackToScalar) {
  // Lanes holding values near both int64 limits: max - min does not fit
  // in int64, so a sign bit is no longer the comparison and the guard
  // must take the comparison count.
  Rng rng(0xed6e0002);
  const std::vector<std::int64_t> anchors{kMin, -1, 0, kMax};
  for (const std::size_t n : kEdgeSizes) {
    expect_edge_counts_match(anchored_lane(rng, n, anchors, true),
                             anchored_lane(rng, n, anchors, false), "both");
  }
  // The smallest overflowing spread, and the largest that still fits.
  const std::vector<std::int64_t> overflowing_desc{kMax, 0, -1};
  const std::vector<std::int64_t> overflowing_asc{-1, 0, kMax};
  expect_edge_counts_match(overflowing_desc, overflowing_asc, "2^63");
  const std::vector<std::int64_t> fitting_desc{kMax - 1, 0, -1};
  const std::vector<std::int64_t> fitting_asc{-1, 0, kMax - 1};
  expect_edge_counts_match(fitting_desc, fitting_asc, "2^63-1");
}

TEST(SweepKernelTest, LanesHuggingOneLimitMatchScalar) {
  // The spread fits but every value sits at one limit, so r - 1 and
  // r + 1 wrap in the unsigned lanes whenever r is that limit.
  Rng rng(0xed6e0003);
  for (const std::size_t n : kEdgeSizes) {
    expect_edge_counts_match(anchored_lane(rng, n, {kMin}, true),
                             anchored_lane(rng, n, {kMin}, false), "min");
    expect_edge_counts_match(anchored_lane(rng, n, {kMax}, true),
                             anchored_lane(rng, n, {kMax}, false), "max");
  }
}

}  // namespace
}  // namespace fnda
