// Branchless counting kernel for threshold sweeps.
//
// TPD's outcome at threshold r depends only on the partition points
// i = |{b >= r}| and j = |{s <= r}| over ranked value lanes.  On a sorted
// lane a partition point equals the *count* of qualifying elements, so it
// can be computed by a data-parallel count instead of a branchy binary
// search: the kernel narrows the bracket with a short branchless binary
// search, then counts the final window linearly.
//
// The count is subtract-and-shift, not compare-and-accumulate:
// |{v >= r}| is the sum of the sign bits of (r - 1) - v, and |{v <= r}|
// is n minus the sum of the sign bits of r - v.  Baseline x86-64 (SSE2) has
// no 64-bit compare (pcmpgtq is SSE4.2), while the subtraction (psubq) and
// the logical shift (psrlq) are native SSE2 and NEON instructions, so the
// plain loop below is one the compiler vectorizes without ISA flags, vector
// extensions or runtime dispatch.  The subtraction runs in unsigned
// arithmetic, so it wraps instead of overflowing.
//
// A sign bit is the true comparison only while the difference fits in
// int64.  The sorted-lane entry points (count_ge_desc / count_le_asc)
// guarantee that: they read the window's two endpoints, return at once
// when r lies outside them, and fall back to a comparison count when the
// window's spread max - min does not fit in int64.  Inside the endpoints
// every difference is bounded by that spread, so the count is exact on
// every input: the partition point std::partition_point returns.
//
// The kernel keeps no counters: a count is a pure function of its lane,
// so each call touches only its arguments and stays free of shared writes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fnda::simd {

namespace detail {
/// |{v > pivot}| over the window, as the sum of the sign bits of
/// pivot - v; exact while every pivot - v fits in int64.  Four
/// independent sums keep the loop free of a carried dependency.
inline std::size_t count_above(const std::int64_t* values, std::size_t n,
                               std::uint64_t pivot) {
  std::uint64_t acc0 = 0;
  std::uint64_t acc1 = 0;
  std::uint64_t acc2 = 0;
  std::uint64_t acc3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += (pivot - static_cast<std::uint64_t>(values[i])) >> 63;
    acc1 += (pivot - static_cast<std::uint64_t>(values[i + 1])) >> 63;
    acc2 += (pivot - static_cast<std::uint64_t>(values[i + 2])) >> 63;
    acc3 += (pivot - static_cast<std::uint64_t>(values[i + 3])) >> 63;
  }
  for (; i < n; ++i) {
    acc0 += (pivot - static_cast<std::uint64_t>(values[i])) >> 63;
  }
  return static_cast<std::size_t>(acc0 + acc1 + acc2 + acc3);
}

/// True when hi - lo (hi >= lo) does not fit in int64: the exact
/// difference is below 2^64, so it is the unsigned one, and it fits
/// exactly when its top bit is clear.
inline bool spread_overflows(std::int64_t hi, std::int64_t lo) {
  const std::uint64_t spread =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  return (spread >> 63) != 0;
}
}  // namespace detail

/// Window below which the bracket is counted linearly instead of split
/// further.  Large enough to amortize the lane setup, small enough that
/// huge books still pay O(log n) compares.
inline constexpr std::size_t kLinearWindow = 128;

/// Partition point |{v >= r}| over a DESCENDING-sorted lane: branchless
/// bracket narrowing, then the endpoint guard and a linear count of the
/// final window.  Equals what std::partition_point with the same
/// predicate returns, on every input.
inline std::size_t count_ge_desc(const std::int64_t* values, std::size_t n,
                                 std::int64_t r) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > kLinearWindow) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool ge = values[mid] >= r;
    lo = ge ? mid + 1 : lo;
    hi = ge ? hi : mid;
  }
  const std::int64_t* window = values + lo;
  const std::size_t size = hi - lo;
  if (size == 0 || r > window[0]) return lo;
  if (r <= window[size - 1]) return hi;
  if (detail::spread_overflows(window[0], window[size - 1])) {
    std::size_t count = 0;
    for (std::size_t t = 0; t < size; ++t) {
      count += static_cast<std::size_t>(window[t] >= r);
    }
    return lo + count;
  }
  // v >= r  <=>  (r - 1) - v < 0.
  return lo + detail::count_above(window, size,
                                  static_cast<std::uint64_t>(r) - 1);
}

/// Partition point |{v <= r}| over an ASCENDING-sorted lane.
inline std::size_t count_le_asc(const std::int64_t* values, std::size_t n,
                                std::int64_t r) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > kLinearWindow) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool le = values[mid] <= r;
    lo = le ? mid + 1 : lo;
    hi = le ? hi : mid;
  }
  const std::int64_t* window = values + lo;
  const std::size_t size = hi - lo;
  if (size == 0 || r < window[0]) return lo;
  if (r >= window[size - 1]) return hi;
  if (detail::spread_overflows(window[size - 1], window[0])) {
    std::size_t count = 0;
    for (std::size_t t = 0; t < size; ++t) {
      count += static_cast<std::size_t>(window[t] <= r);
    }
    return lo + count;
  }
  // v <= r  <=>  not r - v < 0.
  return hi - detail::count_above(window, size,
                                  static_cast<std::uint64_t>(r));
}

}  // namespace fnda::simd
