// Metric snapshots built as plain values.
//
// Exposition helpers, the console formatter and parser, and the health
// watchdog are pure functions of a MetricsSnapshot, so their tests build
// the inputs directly instead of recording into live instruments.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace fnda::obs {

inline MetricValue counter_metric(std::uint64_t value) {
  MetricValue metric;
  metric.kind = MetricKind::kCounter;
  metric.counter = value;
  return metric;
}

inline MetricValue gauge_metric(std::int64_t value) {
  MetricValue metric;
  metric.kind = MetricKind::kGauge;
  metric.gauge = value;
  return metric;
}

/// A histogram holding each (value, times) sample `times` times, bucketed
/// exactly as Histogram::record does.
inline MetricValue histogram_metric(
    std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> samples) {
  MetricValue metric;
  metric.kind = MetricKind::kHistogram;
  std::map<std::uint32_t, std::uint64_t> buckets;
  for (const auto& [value, times] : samples) {
    buckets[static_cast<std::uint32_t>(Histogram::bucket_index(value))] +=
        times;
    metric.hist_count += times;
    metric.hist_sum += value * times;
    metric.hist_max = std::max(metric.hist_max, value);
  }
  metric.buckets.assign(buckets.begin(), buckets.end());
  return metric;
}

/// The snapshot of `metrics`, sorted by name as MetricsRegistry::snapshot
/// sorts it.
inline MetricsSnapshot snapshot_of(
    std::vector<std::pair<std::string, MetricValue>> metrics) {
  MetricsSnapshot snapshot;
  snapshot.metrics = std::move(metrics);
  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

}  // namespace fnda::obs
