// Unified metrics layer: counters, gauges, and HDR-style histograms.
//
// Every hot component of the sharded exchange owns (or binds into) one
// MetricsRegistry per shard.  A registry is deliberately NOT thread-safe:
// a shard's registry is touched only by the worker thread that owns the
// shard (or by the epoch barrier's single-threaded completion step), so
// recording is a plain 64-bit increment — lock-free by construction, the
// same discipline the per-shard BusStats counters already follow.
// Cross-shard aggregation happens only on quiescent snapshots, merged in
// shard order, so the merged output is bit-identical for every worker
// count.
//
// Determinism contract: nothing recorded into a registry on the
// simulation path may derive from the wall clock — histogram samples are
// sim-time durations (delivery latency, epoch advance) or pure counts
// (batch sizes, queue depths).  Wall-clock instrumentation (barrier
// stalls, round-close CPU time) is opt-in behind the session's wallclock
// flag and documented as nondeterministic.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fnda::obs {

// ---------------------------------------------------------------------------
// Instruments.

/// Monotone event count.  64-bit, wraps never in practice.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time signed value.  Merge policy is chosen at registration:
/// totals (escrow held) sum across shards, watermarks (peak queue depth)
/// take the max.
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void raise_to(std::int64_t v) {
    if (v > value_) value_ = v;
  }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Log-bucketed HDR-style histogram over non-negative 64-bit values
/// (negative samples clamp to 0 — callers record durations and counts,
/// both naturally non-negative).
///
/// Bucketing: values below kSubBuckets get exact unit buckets; above
/// that, each power-of-two octave is split into kSubBuckets linear
/// sub-buckets, bounding the relative quantization error at
/// 1/kSubBuckets = 12.5%.  The whole u64 range maps into kBucketCount
/// fixed buckets, so recording is a bit-scan plus two increments and the
/// memory footprint is a flat 4 KiB array — fixed-point friendly, no
/// allocation, bit-identical to merge.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1}
                                               << kSubBucketBits;
  /// Octaves 3..63 contribute kSubBuckets buckets each, on top of the
  /// kSubBuckets exact unit buckets: (64 - kSubBucketBits) * 8 + 8 = 496.
  static constexpr std::size_t kBucketCount =
      (64 - kSubBucketBits + 1) * static_cast<std::size_t>(kSubBuckets);

  /// The bucket a value lands in.  Pure function, shared with exposition
  /// and the tests that pin the power-of-two edges.
  static constexpr std::size_t bucket_index(std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    // Index of the top set bit: one lzcnt/bsr on the recording hot path.
    // (bit_width returns the operand's type before LWG 3656, int after.)
    const int msb = static_cast<int>(std::bit_width(value)) - 1;
    const int shift = msb - kSubBucketBits;
    const std::uint64_t sub = (value >> shift) - kSubBuckets;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(msb - kSubBucketBits + 1)
         << kSubBucketBits) +
        sub);
  }

  /// Largest value mapping into `bucket` (the Prometheus `le` bound).
  static constexpr std::uint64_t bucket_upper_bound(std::size_t bucket) {
    if (bucket < kSubBuckets) return bucket;
    const std::uint64_t group = (bucket >> kSubBucketBits) - 1;  // >= 0
    const std::uint64_t sub = bucket & (kSubBuckets - 1);
    // Inverse of bucket_index: values in [ (sub+8)<<group, (sub+9)<<group ).
    return ((sub + kSubBuckets + 1) << group) - 1;
  }

  void record(std::int64_t sample) {
    const std::uint64_t value =
        sample < 0 ? 0 : static_cast<std::uint64_t>(sample);
    ++counts_[bucket_index(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(std::size_t bucket) const {
    return counts_[bucket];
  }

 private:
  // Inline flat array (not a vector): recording must not chase a data
  // pointer, and the registry heap-allocates the Histogram anyway.
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// The top octave (msb 63) must map inside the flat array: UINT64_MAX
// lands in the very last bucket.
static_assert(Histogram::bucket_index(~std::uint64_t{0}) ==
              Histogram::kBucketCount - 1);

// ---------------------------------------------------------------------------
// Registry and snapshots.

enum class MetricKind { kCounter, kGauge, kHistogram };
enum class GaugeMerge { kSum, kMax };

/// One metric's frozen value, detached from the live instruments.  The
/// snapshot is the only thing that crosses shards, and only after every
/// worker has quiesced.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  GaugeMerge gauge_merge = GaugeMerge::kSum;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  // Histogram payload (empty for scalar kinds): sparse (bucket, count)
  // pairs in bucket order, plus the running aggregates.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  std::uint64_t hist_count = 0;
  std::uint64_t hist_sum = 0;
  std::uint64_t hist_max = 0;
};

/// Name -> value, sorted by name.  merge_from folds another snapshot in
/// (sum counters/histograms, sum-or-max gauges); folding shard snapshots
/// in shard order is the deterministic session aggregate.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricValue>> metrics;

  void merge_from(const MetricsSnapshot& other);
  const MetricValue* find(const std::string& name) const;
};

/// Per-shard metric namespace.  Owns its instruments (stable addresses —
/// components cache raw pointers at wiring time) and can additionally
/// bind *callback* metrics that read an external cell at snapshot time:
/// that is how the pre-existing BusStats / EpochStats / LiveBookStats
/// structs surface in the unified output without moving their storage or
/// touching their hot-path increments.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the returned reference is stable for the registry's
  /// lifetime.  Re-requesting a name with a different kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name, GaugeMerge merge = GaugeMerge::kSum);
  Histogram& histogram(const std::string& name);

  /// Snapshot-time callback metrics (no owned storage).  Registering a
  /// duplicate name throws.
  void counter_fn(const std::string& name,
                  std::function<std::uint64_t()> read);
  void gauge_fn(const std::string& name, std::function<std::int64_t()> read,
                GaugeMerge merge = GaugeMerge::kSum);

  /// Freezes every metric into a name-sorted snapshot.
  MetricsSnapshot snapshot() const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    GaugeMerge gauge_merge = GaugeMerge::kSum;
    // Exactly one of the owned instruments or a callback is live.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<std::uint64_t()> read_counter;
    std::function<std::int64_t()> read_gauge;
  };

  Entry* find_entry(const std::string& name);
  Entry& add_entry(const std::string& name, MetricKind kind);

  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace fnda::obs
