// Chrome trace_event spans for the sharded exchange.
//
// Each shard (plus the epoch driver) owns a TraceSink: a fixed-capacity
// ring of complete ("ph":"X") events recorded by RAII TraceScope spans or
// by explicit record_span calls.  Timestamps come from the sink's clock —
// the owning shard's simulated clock by default, so traces are
// bit-identical for every worker count; a session may opt into wall-clock
// timestamps (market-bench --trace-wallclock), which trades determinism
// for real CPU durations.
//
// The ring keeps the FIRST `capacity` events and counts the rest as
// dropped (a deterministic policy — which events survive depends only on
// the shard's own event order, never on thread timing).  Sinks are
// flushed once, at session end, in shard order; write_chrome_trace emits
// the standard {"traceEvents":[...]} JSON that chrome://tracing and
// Perfetto load directly.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace fnda::obs {

/// One complete event.  `name` and `category` point at string literals —
/// trace call sites use fixed labels, so the ring stores 32 bytes per
/// event and recording never allocates.
struct TraceEvent {
  const char* name = "";
  const char* category = "";
  std::int64_t ts_micros = 0;
  std::int64_t dur_micros = 0;
  std::uint32_t tid = 0;
};

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceSink(std::uint32_t tid = 0,
                     std::size_t capacity = kDefaultCapacity)
      : tid_(tid), capacity_(capacity == 0 ? 1 : capacity) {}

  /// The clock spans read (microseconds).  Unset sinks record ts 0 —
  /// wiring always installs either the shard's sim clock or the session
  /// wall clock.
  void set_clock(std::function<std::int64_t()> clock) {
    clock_ = std::move(clock);
  }
  std::int64_t now() const { return clock_ ? clock_() : 0; }

  /// Runtime recording gate (`trace start|stop` on the console).  A
  /// stopped sink drops spans silently — not counted as ring overflow, so
  /// stop/start never perturbs the dropped counter the tests pin.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void record_span(const char* name, const char* category,
                   std::int64_t ts_micros, std::int64_t dur_micros) {
    if (!enabled_) return;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(TraceEvent{name, category, ts_micros, dur_micros, tid_});
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

  std::uint32_t tid() const { return tid_; }

 private:
  std::uint32_t tid_ = 0;
  std::size_t capacity_;
  bool enabled_ = true;
  std::function<std::int64_t()> clock_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: records [construction, destruction) against the sink's
/// clock.  A null sink (telemetry disabled) makes the scope free.
class TraceScope {
 public:
  TraceScope(TraceSink* sink, const char* name, const char* category)
      : sink_(sink), name_(name), category_(category) {
    if (sink_ != nullptr) start_ = sink_->now();
  }
  ~TraceScope() {
    if (sink_ != nullptr) {
      sink_->record_span(name_, category_, start_, sink_->now() - start_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
  const char* category_;
  std::int64_t start_ = 0;
};

/// A session's flushed trace: thread names plus every sink's events in
/// flush order (driver first, then shards in shard order).
struct TraceLog {
  struct Thread {
    std::uint32_t tid = 0;
    std::string name;
  };
  std::vector<Thread> threads;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;

  void append(const TraceSink& sink, std::string thread_name);
};

/// Writes {"traceEvents":[...]} — thread_name metadata first, then the
/// events verbatim in log order.
void write_chrome_trace(std::ostream& os, const TraceLog& log);

}  // namespace fnda::obs
