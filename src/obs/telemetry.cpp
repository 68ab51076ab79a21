#include "obs/telemetry.h"

#include <string>

namespace fnda::obs {

SessionTelemetry::SessionTelemetry(std::size_t shards,
                                   TelemetryOptions options)
    : options_(options),
      start_(std::chrono::steady_clock::now()),
      driver_(0) {
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.emplace_back(static_cast<std::uint32_t>(s + 1));
  }
}

std::int64_t SessionTelemetry::wall_micros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

MetricsSnapshot SessionTelemetry::merged_snapshot() const {
  MetricsSnapshot merged = driver_.metrics.snapshot();
  for (const ShardTelemetry& shard : shards_) {
    merged.merge_from(shard.metrics.snapshot());
  }
  return merged;
}

TraceLog SessionTelemetry::flush_trace() const {
  TraceLog log;
  log.append(driver_.trace, "epoch-driver");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    log.append(shards_[s].trace, "shard-" + std::to_string(s));
  }
  return log;
}

}  // namespace fnda::obs
