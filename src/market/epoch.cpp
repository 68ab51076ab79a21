#include "market/epoch.h"

#include <algorithm>
#include <barrier>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fnda {

namespace {

/// Window end of an adaptive (unbounded) epoch: far enough that every
/// pending event is inside it, small enough that no queue arithmetic can
/// overflow.
constexpr SimTime kUnboundedWindow{std::numeric_limits<std::int64_t>::max() /
                                   2};

}  // namespace

EpochDriver::EpochDriver(std::vector<EventQueue*> queues, SimTime lookahead,
                         bool adaptive)
    : queues_(std::move(queues)),
      lookahead_(std::max(lookahead, SimTime{1})),
      adaptive_(adaptive),
      lanes_(queues_.size()) {}

void EpochDriver::bind_telemetry(obs::SessionTelemetry& session) {
  telemetry_ = &session;
  obs::MetricsRegistry& registry = session.driver().metrics;
  registry.counter_fn("fnda_epoch_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.epochs);
  });
  // Always 0 (no cross-shard traffic, no merge scratch); exported because
  // the exposition digest in tests/obs/metrics_test.cpp covers them.
  registry.counter_fn("fnda_epoch_injected_total",
                      [] { return std::uint64_t{0}; });
  registry.counter_fn("fnda_epoch_barriers_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.barriers);
  });
  registry.counter_fn("fnda_epoch_widened_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.widened);
  });
  registry.counter_fn("fnda_epoch_merge_arena_high_water_bytes",
                      [] { return std::uint64_t{0}; });
  epoch_advance_hist_ = &registry.histogram("fnda_epoch_advance_us");
  window_hist_ = &registry.histogram("fnda_epoch_window_us");
  if (session.wallclock()) {
    barrier_stall_hist_ = &registry.histogram("fnda_epoch_barrier_stall_us");
  }
  // Depth and stall samples go into each shard's own registry so the
  // merged snapshot still folds them in canonical shard order.
  depth_hists_.assign(queues_.size(), nullptr);
  depth_peaks_.assign(queues_.size(), nullptr);
  shard_stall_hists_.clear();
  if (session.wallclock()) {
    shard_stall_hists_.assign(queues_.size(), nullptr);
  }
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    obs::MetricsRegistry& shard_registry = session.shard(s).metrics;
    depth_hists_[s] = &shard_registry.histogram("fnda_queue_depth");
    depth_peaks_[s] = &shard_registry.gauge("fnda_queue_depth_peak",
                                            obs::GaugeMerge::kMax);
    if (session.wallclock()) {
      shard_stall_hists_[s] =
          &shard_registry.histogram("fnda_epoch_shard_stall_us");
    }
  }
}

void EpochDriver::head_phase() noexcept {
  // Parallel: each worker claims shards off the shared cursor.  The
  // claimed shard's queue, lane, and shard registry are touched by this
  // worker only (per-phase ownership); the preceding barrier ordered
  // these accesses after the run phase.
  const bool bail = failed_.load(std::memory_order_acquire);
  for (;;) {
    const std::size_t s = head_claim_.fetch_add(1, std::memory_order_relaxed);
    if (s >= queues_.size()) return;
    ShardLane& lane = lanes_[s];
    if (bail || errors_[s] != nullptr) {
      lane.next = kEmpty;
      continue;
    }
    try {
      if (!depth_hists_.empty()) {
        // Depth is a pure function of the event history, so the sample
        // stream is identical for every worker count.
        const auto depth = static_cast<std::int64_t>(queues_[s]->pending());
        depth_hists_[s]->record(depth);
        depth_peaks_[s]->raise_to(depth);
      }
      const std::optional<SimTime> head = queues_[s]->next_time();
      lane.next = head.has_value() ? head->micros : kEmpty;
      // Bounded drive: a head at or beyond this shard's bound is outside
      // the drive — the shard looks quiescent to the window reduction and
      // its events stay queued for a later drive.
      if (bounds_ != nullptr && lane.next != kEmpty &&
          lane.next >= (*bounds_)[s].micros) {
        lane.next = kEmpty;
      }
    } catch (...) {
      errors_[s] = std::current_exception();
      failed_.store(true, std::memory_order_release);
      lane.next = kEmpty;
    }
  }
}

void EpochDriver::advance_window() noexcept {
  // Window barrier completion: runs on exactly one thread while every
  // other worker is parked inside the barrier; an O(shards) reduction.
  ++stats_.barriers;
  ++lifetime_.barriers;
  const std::int64_t stall_start =
      barrier_stall_hist_ != nullptr ? telemetry_->wall_micros() : 0;
  run_claim_.store(0, std::memory_order_relaxed);
  if (failed_.load(std::memory_order_acquire)) {
    stop_ = true;
    return;
  }
  std::int64_t m1 = kEmpty;  // smallest shard head
  for (const ShardLane& lane : lanes_) m1 = std::min(m1, lane.next);
  if (m1 == kEmpty) {
    stop_ = true;  // every queue is empty (below its bound): quiescent
    if (barrier_stall_hist_ != nullptr) {
      barrier_stall_hist_->record(telemetry_->wall_micros() - stall_start);
    }
    return;
  }
  const SimTime next{m1};
  epoch_start_ = next;
  if (adaptive_) {
    // No shard can affect another, so the causal bound is infinite: run
    // every shard to quiescence in this one window.
    epoch_end_ = kUnboundedWindow;
    ++stats_.widened;
    ++lifetime_.widened;
  } else {
    epoch_end_ = next + lookahead_ - SimTime{1};
  }
  ++stats_.epochs;
  ++lifetime_.epochs;
  if (telemetry_ != nullptr) {
    if (epoch_advance_hist_ != nullptr && !first_epoch_of_drive_) {
      epoch_advance_hist_->record((next - last_epoch_start_).micros);
    }
    first_epoch_of_drive_ = false;
    last_epoch_start_ = next;
    if (window_hist_ != nullptr && !adaptive_) {
      window_hist_->record((epoch_end_ - next).micros + 1);
    }
    if (!telemetry_->wallclock() && !adaptive_) {
      // Deterministic epoch-window span in sim time.  Unbounded windows
      // are recorded at the drain barrier, once their executed extent is
      // known; in wallclock mode the stall span below carries the driver
      // timeline instead.
      telemetry_->driver().trace.record_span(
          "epoch", "epoch", next.micros, (epoch_end_ - next).micros + 1);
    }
  }
  if (barrier_stall_hist_ != nullptr) {
    const std::int64_t stall = telemetry_->wall_micros() - stall_start;
    barrier_stall_hist_->record(stall);
    telemetry_->driver().trace.record_span("barrier-advance", "epoch",
                                           stall_start, stall);
  }
}

void EpochDriver::run_phase() noexcept {
  // Parallel: claim-and-run.  A shard that already captured an error
  // stays frozen; the others finish the epoch in flight, and the window
  // barrier stops everyone next.
  const bool wall = !shard_stall_hists_.empty();
  for (;;) {
    const std::size_t s = run_claim_.fetch_add(1, std::memory_order_relaxed);
    if (s >= queues_.size()) return;
    if (errors_[s] == nullptr) {
      try {
        // run_until is INCLUSIVE of its end time, so a bounded shard is
        // clamped to bound - 1: only events strictly before the bound run.
        SimTime end = epoch_end_;
        if (bounds_ != nullptr) {
          end = std::min(end, (*bounds_)[s] - SimTime{1});
        }
        queues_[s]->run_until(end, std::numeric_limits<std::size_t>::max());
      } catch (...) {
        errors_[s] = std::current_exception();
        failed_.store(true, std::memory_order_release);
      }
    }
    if (wall) lanes_[s].run_end_wall = telemetry_->wall_micros();
  }
}

void EpochDriver::finish_run() noexcept {
  // Drain barrier completion (serial): reset the head cursor before any
  // worker is released into the head phase, account how long each shard
  // waited for the slowest one, and record the executed extent of an
  // unbounded window now that it is known.
  ++stats_.barriers;
  ++lifetime_.barriers;
  head_claim_.store(0, std::memory_order_relaxed);
  if (adaptive_ && telemetry_ != nullptr && !telemetry_->wallclock() &&
      !failed_.load(std::memory_order_acquire)) {
    SimTime extent = epoch_start_;
    for (const EventQueue* queue : queues_) {
      extent = std::max(extent, queue->now());
    }
    telemetry_->driver().trace.record_span(
        "epoch", "epoch", epoch_start_.micros,
        (extent - epoch_start_).micros + 1);
  }
  if (!shard_stall_hists_.empty()) {
    const std::int64_t barrier_wall = telemetry_->wall_micros();
    for (std::size_t s = 0; s < queues_.size(); ++s) {
      shard_stall_hists_[s]->record(barrier_wall - lanes_[s].run_end_wall);
    }
  }
}

EpochStats EpochDriver::drive(std::size_t threads) {
  bounds_ = nullptr;
  return drive_impl(threads);
}

EpochStats EpochDriver::drive_until(const std::vector<SimTime>& bounds,
                                    std::size_t threads) {
  if (bounds.size() != queues_.size()) {
    throw std::invalid_argument("drive_until: one bound per shard required");
  }
  bounds_ = &bounds;
  try {
    const EpochStats stats = drive_impl(threads);
    bounds_ = nullptr;
    return stats;
  } catch (...) {
    bounds_ = nullptr;
    throw;
  }
}

EpochStats EpochDriver::drive_impl(std::size_t threads) {
  const std::size_t shard_count = queues_.size();
  workers_ =
      std::clamp<std::size_t>(threads, 1, shard_count == 0 ? 1 : shard_count);
  stop_ = false;
  failed_.store(false, std::memory_order_relaxed);
  stats_ = EpochStats{};
  first_epoch_of_drive_ = true;
  errors_.assign(shard_count, nullptr);
  head_claim_.store(0, std::memory_order_relaxed);
  run_claim_.store(0, std::memory_order_relaxed);

  std::barrier window_barrier(static_cast<std::ptrdiff_t>(workers_),
                              [this]() noexcept { advance_window(); });
  std::barrier drain_barrier(static_cast<std::ptrdiff_t>(workers_),
                             [this]() noexcept { finish_run(); });

  auto worker = [&](std::size_t) {
    head_phase();
    for (;;) {
      window_barrier.arrive_and_wait();  // completion step ran before release
      if (stop_) return;
      run_phase();
      drain_barrier.arrive_and_wait();
      head_phase();
    }
  };

  if (workers_ == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    for (std::size_t w = 1; w < workers_; ++w) {
      pool.emplace_back(worker, w);
    }
    worker(0);
    for (std::thread& thread : pool) thread.join();
  }

  for (std::size_t s = 0; s < shard_count; ++s) {
    if (errors_[s] != nullptr) std::rethrow_exception(errors_[s]);
  }
  return stats_;
}

}  // namespace fnda
