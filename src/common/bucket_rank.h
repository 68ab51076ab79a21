// Stable rank kernel for short lanes.
//
// Ranks a lane of at most kBucketRankMax entries by a signed 64-bit key
// without a comparison sort, in the order std::stable_sort would leave it:
//
//   1. one pass finds the lane's lowest and highest key, lo and hi;
//   2. each entry goes to one of kRankBuckets buckets by RankBucketMap,
//      which is monotone in the rank order;
//   3. a stable counting scatter writes the entries, bucket by bucket,
//      into a stack buffer;
//   4. a stable insertion pass copies them back and finishes the order.
//
// Entries in different buckets are already in rank order, so step 4 only
// moves an entry past the strictly-preceding entries of its own bucket;
// its input is nearly sorted, so it makes few moves and mispredicts
// little.  Equal keys share a bucket, are scattered in input order and
// never passed by each other, which is what makes the kernel stable.
// Step 4 runs over the whole lane, so the order would still be right
// under a map that is not monotone; the map's monotonicity is what keeps
// the pass short, and RankBucketMap's own test pins it.
//
// The kernel allocates nothing and ranks its lane in place: every entry
// is scattered before the first write back.  Longer lanes are the
// caller's to rank (std::sort / std::stable_sort).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace fnda {

/// Longest lane bucket_rank accepts.
inline constexpr std::size_t kBucketRankMax = 64;

enum class RankOrder { kAscending, kDescending };

/// Maps the keys of a lane spanning [lo, hi], lo < hi, to buckets
/// [0, kRankBuckets): bucket 0 holds the lane's first rank (lo ascending,
/// hi descending) and the map never decreases along the rank order.
///
/// Exact for any int64 keys: the span and the offsets from the first rank
/// are taken in unsigned 64-bit arithmetic, where hi - lo cannot overflow,
/// and the reciprocal floor((2^64 - 1) / span) keeps offset * reciprocal
/// within 64 bits, so the product neither wraps nor loses monotonicity.
/// Its top kBucketBits bits are the bucket.
template <RankOrder kOrder>
class RankBucketMap {
 public:
  static constexpr unsigned kBucketBits = 6;
  static constexpr std::size_t kRankBuckets = std::size_t{1} << kBucketBits;

  RankBucketMap(std::int64_t lo, std::int64_t hi)
      : lo_(static_cast<std::uint64_t>(lo)),
        hi_(static_cast<std::uint64_t>(hi)),
        reciprocal_(std::numeric_limits<std::uint64_t>::max() / (hi_ - lo_)) {
    assert(lo < hi);
  }

  std::size_t operator()(std::int64_t key) const {
    const auto k = static_cast<std::uint64_t>(key);
    const std::uint64_t offset =
        kOrder == RankOrder::kAscending ? k - lo_ : hi_ - k;
    return static_cast<std::size_t>((offset * reciprocal_) >>
                                    (64 - kBucketBits));
  }

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
  std::uint64_t reciprocal_;
};

/// Stable rank of `lane` by `key_of(entry)` (an int64), lowest key first
/// for kAscending and highest first for kDescending.  Requires
/// lane.size() <= kBucketRankMax.
template <RankOrder kOrder, typename T, typename KeyOf>
void bucket_rank(std::span<T> lane, KeyOf key_of) {
  using Map = RankBucketMap<kOrder>;
  const std::size_t n = lane.size();
  assert(n <= kBucketRankMax);
  if (n < 2) return;

  std::int64_t lo = key_of(lane[0]);
  std::int64_t hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    const std::int64_t key = key_of(lane[i]);
    lo = key < lo ? key : lo;
    hi = key > hi ? key : hi;
  }
  if (lo == hi) return;  // one key: the stable order is the input order
  const Map bucket_of(lo, hi);

  // start[b + 1] counts bucket b, then the prefix pass turns start[b] into
  // bucket b's first slot.  Counts are at most 64, so bytes hold them.
  std::uint8_t bucket[kBucketRankMax];
  std::uint8_t start[Map::kRankBuckets + 1] = {};
  for (std::size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<std::uint8_t>(bucket_of(key_of(lane[i])));
    ++start[bucket[i] + 1];
  }
  for (std::size_t b = 1; b < Map::kRankBuckets; ++b) {
    start[b] = static_cast<std::uint8_t>(start[b] + start[b - 1]);
  }

  T scattered[kBucketRankMax];
  for (std::size_t i = 0; i < n; ++i) scattered[start[bucket[i]]++] = lane[i];

  auto before = [](std::int64_t a, std::int64_t b) {
    return kOrder == RankOrder::kAscending ? a < b : a > b;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const T entry = scattered[i];
    const std::int64_t key = key_of(entry);
    std::size_t j = i;
    while (j > 0 && before(key, key_of(lane[j - 1]))) {
      lane[j] = lane[j - 1];
      --j;
    }
    lane[j] = entry;
  }
}

}  // namespace fnda
