// Session-level telemetry: one metrics registry + trace sink per shard,
// plus one for the epoch driver, owned as a unit by the exchange.
//
// Aggregation contract: merged_snapshot() folds the driver registry and
// then every shard registry IN SHARD ORDER; flush_trace() concatenates
// the driver sink and then every shard sink in shard order.  Each
// per-shard stream is produced by deterministic single-threaded
// execution, so both outputs are bit-identical for every worker count —
// the property `fnda market-bench --metrics-out/--trace-out` exposes and
// the obs tests pin against golden digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fnda::obs {

struct TelemetryOptions {
  /// The one off-switch: disabled sessions wire no telemetry at all
  /// (components keep null instrument pointers), which is the in-binary
  /// baseline the <2% overhead bench compares against.  No exchange state
  /// reads an instrument, so a session's results do not depend on it.
  bool enabled = true;
  /// Wall-clock mode: trace timestamps come from the session steady
  /// clock and the wall-clock histograms (epoch barrier stall,
  /// round-close CPU time) are recorded.  Nondeterministic by nature —
  /// never enabled on the replay/digest paths.
  bool wallclock = false;
};

/// One event loop's private telemetry world (a shard, or the driver).
struct ShardTelemetry {
  explicit ShardTelemetry(std::uint32_t tid) : trace(tid) {}

  MetricsRegistry metrics;
  TraceSink trace;
};

class SessionTelemetry {
 public:
  /// Driver gets tid 0; shard s gets tid s + 1.
  SessionTelemetry(std::size_t shards, TelemetryOptions options);
  SessionTelemetry(const SessionTelemetry&) = delete;
  SessionTelemetry& operator=(const SessionTelemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }
  bool wallclock() const { return options_.wallclock; }

  ShardTelemetry& driver() { return driver_; }
  ShardTelemetry& shard(std::size_t s) { return shards_[s]; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Gates span recording on every sink at once (`trace start|stop`).
  /// Quiescent callers only, like the snapshot accessors.
  void set_trace_enabled(bool enabled) {
    driver_.trace.set_enabled(enabled);
    for (ShardTelemetry& shard : shards_) shard.trace.set_enabled(enabled);
  }
  bool trace_enabled() const { return driver_.trace.enabled(); }

  /// Steady-clock microseconds since session construction (the wall
  /// clock behind --trace-wallclock; never consulted in sim-time mode).
  std::int64_t wall_micros() const;

  /// Driver + shards in shard order; quiescent callers only.
  MetricsSnapshot merged_snapshot() const;
  TraceLog flush_trace() const;

 private:
  TelemetryOptions options_;
  std::chrono::steady_clock::time_point start_;
  ShardTelemetry driver_;
  std::deque<ShardTelemetry> shards_;  // stable addresses
};

}  // namespace fnda::obs
