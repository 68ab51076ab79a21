// Pins the HDR histogram's bucket geometry: exact unit buckets below 8,
// eight linear sub-buckets per octave above, the full u64 range mapping
// inside the flat array, and <= 12.5% relative quantization error.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace fnda::obs {
namespace {

TEST(HistogramBuckets, ZeroAndUnitValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_upper_bound(v), v);
  }
}

TEST(HistogramBuckets, PowerOfTwoEdgesStartNewOctaves) {
  // Each power of two >= 8 opens a fresh group of 8 sub-buckets, adjacent
  // to the previous octave's top bucket.
  for (int k = 3; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    const std::size_t at_p = Histogram::bucket_index(p);
    EXPECT_EQ(Histogram::bucket_index(p - 1) + 1, at_p) << "p=2^" << k;
    EXPECT_EQ(at_p & (Histogram::kSubBuckets - 1), 0u) << "p=2^" << k;
    // The value one below the edge maps into the previous group's last
    // bucket, whose upper bound is exactly p - 1.
    EXPECT_EQ(Histogram::bucket_upper_bound(at_p - 1), p - 1) << "p=2^" << k;
  }
}

TEST(HistogramBuckets, UpperBoundsAreTightAndMonotone) {
  std::uint64_t previous = 0;
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
    const std::uint64_t bound = Histogram::bucket_upper_bound(b);
    if (b > 0) {
      EXPECT_GT(bound, previous) << "bucket " << b;
    }
    // The bound itself lands in the bucket; the next value does not.
    EXPECT_EQ(Histogram::bucket_index(bound), b);
    if (bound != std::numeric_limits<std::uint64_t>::max()) {
      EXPECT_EQ(Histogram::bucket_index(bound + 1), b + 1);
    }
    previous = bound;
  }
}

TEST(HistogramBuckets, MaxValueMapsIntoLastBucket) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Histogram::bucket_index(max), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(Histogram::kBucketCount - 1), max);
}

TEST(HistogramBuckets, RelativeErrorBoundedByOneEighth) {
  // Within one bucket the true value and the reported upper bound differ
  // by less than the bucket width, which is value/8 at worst.
  for (std::uint64_t v : {9ull, 100ull, 1'000ull, 123'456'789ull,
                          (1ull << 40) + 12345ull}) {
    const std::uint64_t bound =
        Histogram::bucket_upper_bound(Histogram::bucket_index(v));
    EXPECT_GE(bound, v);
    EXPECT_LE(bound - v, v / Histogram::kSubBuckets) << "v=" << v;
  }
}

TEST(HistogramRecord, CountsSumsAndClampsNegatives) {
  Histogram hist;
  hist.record(0);
  hist.record(5);
  hist.record(5);
  hist.record(-17);  // clamps to 0
  hist.record(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(),
            10u + static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(hist.max(), static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(hist.bucket_count(0), 2u);  // the zero and the clamped negative
  EXPECT_EQ(hist.bucket_count(5), 2u);
}

}  // namespace
}  // namespace fnda::obs
