// Branchless/SIMD counting kernel for threshold sweeps.
//
// TPD's outcome at threshold r depends only on the partition points
// i = |{b >= r}| and j = |{s <= r}| over ranked value lanes.  On a sorted
// lane a partition point equals the *count* of qualifying elements, so it
// can be computed by a data-parallel compare-and-accumulate instead of a
// branchy binary search: the kernel narrows the bracket with a short
// branchless binary search, then counts the final window with SIMD
// compares (GCC/Clang vector extensions, 2 x int64 lanes unrolled twice —
// 128-bit vectors are native on baseline x86-64 and NEON, so no ABI or
// ISA flags are needed) or a portable scalar-branchless loop.
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
typedef std::int64_t Vec2 __attribute__((vector_size(16)));

inline Vec2 load2(const std::int64_t* p) {
  Vec2 x;
  std::memcpy(&x, p, sizeof x);  // unaligned-safe
  return x;
}
}  // namespace detail
#endif

inline std::size_t count_ge_linear(const std::int64_t* values, std::size_t n,
                                   std::int64_t r) {
#if defined(FNDA_SWEEP_KERNEL_VECTOR)
  const detail::Vec2 rv = {r, r};
  detail::Vec2 acc0 = {0, 0};
  detail::Vec2 acc1 = {0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 -= (detail::load2(values + i) >= rv);  // true lanes are -1
    acc1 -= (detail::load2(values + i + 2) >= rv);
  }
  for (; i + 2 <= n; i += 2) {
    acc0 -= (detail::load2(values + i) >= rv);
  }
  auto count = static_cast<std::size_t>(acc0[0] + acc0[1] + acc1[0] + acc1[1]);
  for (; i < n; ++i) count += static_cast<std::size_t>(values[i] >= r);
  return count;
#else
  return count_ge_linear_scalar(values, n, r);
#endif
}

inline std::size_t count_le_linear(const std::int64_t* values, std::size_t n,
                                   std::int64_t r) {
#if defined(FNDA_SWEEP_KERNEL_VECTOR)
  const detail::Vec2 rv = {r, r};
  detail::Vec2 acc0 = {0, 0};
  detail::Vec2 acc1 = {0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 -= (detail::load2(values + i) <= rv);
    acc1 -= (detail::load2(values + i + 2) <= rv);
  }
  for (; i + 2 <= n; i += 2) {
    acc0 -= (detail::load2(values + i) <= rv);
  }
  auto count = static_cast<std::size_t>(acc0[0] + acc0[1] + acc1[0] + acc1[1]);
  for (; i < n; ++i) count += static_cast<std::size_t>(values[i] <= r);
  return count;
#else
  return count_le_linear_scalar(values, n, r);
#endif
}

/// Window below which the bracket is counted linearly instead of split
/// further.  Large enough to amortize the lane setup, small enough that
/// huge books still pay O(log n) compares.
inline constexpr std::size_t kLinearWindow = 128;

/// Partition point |{v >= r}| over a DESCENDING-sorted lane: branchless
/// bracket narrowing, then a linear count of the final window.  Equals
/// what std::lower_bound with the same predicate returns, on every input,
/// whichever linear path is compiled.
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
  return lo + count_ge_linear(values + lo, hi - lo, r);
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
  return lo + count_le_linear(values + lo, hi - lo, r);
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
