// Branchless/SIMD counting kernel for threshold sweeps.
//
// TPD's outcome at threshold r depends only on the partition points
// i = |{b >= r}| and j = |{s <= r}| over ranked value lanes.  On a sorted
// lane a partition point equals the *count* of qualifying elements, so it
// can be computed by a data-parallel count instead of a branchy binary
// search: the kernel narrows the bracket with a short branchless binary
// search, then counts the final window linearly.
//
// The vector count is subtract-and-shift, not compare-and-accumulate:
// |{v >= r}| is the sum of the sign bits of (r - 1) - v, and |{v <= r}|
// is n minus the sum of the sign bits of r - v.  Baseline x86-64 (SSE2) has no
// 64-bit compare (pcmpgtq is SSE4.2), so a `Vec2 >= Vec2` on int64 lanes
// compiles to an emulation of several 32-bit ops per compare, while the
// subtraction (psubq) and the logical shift (psrlq) are native SSE2 and
// NEON instructions.  GCC/Clang vector extensions, 2 x 64-bit lanes
// unrolled twice; no ISA flags and no runtime dispatch.  The subtraction
// runs in unsigned lanes, so it wraps instead of overflowing.
//
// A sign bit is the true comparison only while the difference fits in
// int64.  The sorted-lane entry points (count_ge_desc / count_le_asc)
// guarantee that: they read the window's two endpoints, return at once
// when r lies outside them, and fall back to the scalar count when the
// window's spread max - min does not fit in int64.  Inside the endpoints
// every difference is bounded by that spread, so the count is exact on
// every input.
//
// Bit-identity is by construction: on a sorted lane every strategy
// returns the same integer, the partition point.  The scalar reference
// implementations (`*_scalar`) are always compiled — the equivalence
// suite asserts kernel == scalar on randomized and adversarial lanes —
// and defining FNDA_FORCE_SCALAR_KERNEL (CMake -DFNDA_SCALAR_SWEEP=ON)
// makes the dispatching entry points USE the scalar path, which a CI leg
// builds so the portable fallback cannot rot.
//
// The kernel keeps no counters: a count is a pure function of its lane,
// so each call touches only its arguments and stays free of shared writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace fnda::simd {

#if defined(__GNUC__) && !defined(FNDA_FORCE_SCALAR_KERNEL)
#define FNDA_SWEEP_KERNEL_VECTOR 1
#endif

constexpr std::size_t kernel_lane_width() {
#if defined(FNDA_SWEEP_KERNEL_VECTOR)
  return 2;  // 128-bit vector of int64 (two vectors in flight per step)
#else
  return 1;
#endif
}

constexpr const char* kernel_name() {
#if defined(FNDA_SWEEP_KERNEL_VECTOR)
  return "gcc-vector-128x2";
#else
  return "scalar-branchless";
#endif
}

/// Branchless linear counts over an (unsorted or sorted) window.  The
/// `_scalar` forms are the always-available reference; the plain forms
/// dispatch to the SIMD path when it is compiled in.
inline std::size_t count_ge_linear_scalar(const std::int64_t* values,
                                          std::size_t n, std::int64_t r) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(values[i] >= r);
  }
  return count;
}

inline std::size_t count_le_linear_scalar(const std::int64_t* values,
                                          std::size_t n, std::int64_t r) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(values[i] <= r);
  }
  return count;
}

#if defined(FNDA_SWEEP_KERNEL_VECTOR)
namespace detail {
typedef std::uint64_t U64x2 __attribute__((vector_size(16)));

inline U64x2 load2(const std::int64_t* p) {
  U64x2 x;
  std::memcpy(&x, p, sizeof x);  // unaligned-safe; same bits as int64
  return x;
}

/// |{v > pivot}| over the window, as the sum of the sign bits of
/// pivot - v; exact while every pivot - v fits in int64.  Unsigned
/// lanes: the subtraction wraps, never UB.
inline std::size_t count_above(const std::int64_t* values, std::size_t n,
                               std::uint64_t pivot) {
  const U64x2 pv = {pivot, pivot};
  U64x2 acc0 = {0, 0};
  U64x2 acc1 = {0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += (pv - load2(values + i)) >> 63;
    acc1 += (pv - load2(values + i + 2)) >> 63;
  }
  for (; i + 2 <= n; i += 2) acc0 += (pv - load2(values + i)) >> 63;
  const U64x2 acc = acc0 + acc1;
  auto count = static_cast<std::size_t>(acc[0] + acc[1]);
  for (; i < n; ++i) {
    count += (pivot - static_cast<std::uint64_t>(values[i])) >> 63;
  }
  return count;
}
}  // namespace detail
#endif

/// Dispatching linear counts over a window.  The vector path is exact
/// when every difference (r - 1) - v (resp. r - v) fits in int64;
/// count_ge_desc / count_le_asc establish that for any sorted lane before
/// they call here.
inline std::size_t count_ge_linear(const std::int64_t* values, std::size_t n,
                                   std::int64_t r) {
#if defined(FNDA_SWEEP_KERNEL_VECTOR)
  // v >= r  <=>  (r - 1) - v < 0.
  return detail::count_above(values, n, static_cast<std::uint64_t>(r) - 1);
#else
  return count_ge_linear_scalar(values, n, r);
#endif
}

inline std::size_t count_le_linear(const std::int64_t* values, std::size_t n,
                                   std::int64_t r) {
#if defined(FNDA_SWEEP_KERNEL_VECTOR)
  // v <= r  <=>  not r - v < 0.
  return n - detail::count_above(values, n, static_cast<std::uint64_t>(r));
#else
  return count_le_linear_scalar(values, n, r);
#endif
}

namespace detail {
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
/// final window.  Equals what std::lower_bound with the same predicate
/// returns, on every input, whichever linear path is compiled.
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
    return lo + count_ge_linear_scalar(window, size, r);
  }
  return lo + count_ge_linear(window, size, r);
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
    return lo + count_le_linear_scalar(window, size, r);
  }
  return lo + count_le_linear(window, size, r);
}

/// Scalar reference partition points (no SIMD in any build), for the
/// kernel-equivalence suite.
inline std::size_t count_ge_desc_scalar(const std::int64_t* values,
                                        std::size_t n, std::int64_t r) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > kLinearWindow) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (values[mid] >= r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + count_ge_linear_scalar(values + lo, hi - lo, r);
}

inline std::size_t count_le_asc_scalar(const std::int64_t* values,
                                       std::size_t n, std::int64_t r) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > kLinearWindow) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (values[mid] <= r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + count_le_linear_scalar(values + lo, hi - lo, r);
}

}  // namespace fnda::simd
