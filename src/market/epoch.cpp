#include "market/epoch.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace fnda {

EpochDriver::EpochDriver(std::vector<EventQueue*> queues, WorkerPool& pool)
    : queues_(std::move(queues)), pool_(pool), lanes_(queues_.size()) {}

void EpochDriver::bind_telemetry(obs::SessionTelemetry& session) {
  telemetry_ = &session;
  obs::MetricsRegistry& registry = session.driver().metrics;
  registry.counter_fn("fnda_epoch_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.epochs);
  });
  registry.counter_fn("fnda_epoch_barriers_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.barriers);
  });
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

void EpochDriver::run_shard(std::size_t s,
                            const std::vector<SimTime>* bounds) noexcept {
  EventQueue& queue = *queues_[s];
  ShardLane& lane = lanes_[s];
  // Depth is a pure function of the event history, so the sample stream
  // is identical for every worker count.
  const auto sample_depth = [&] {
    if (depth_hists_.empty()) return;
    const auto depth = static_cast<std::int64_t>(queue.pending());
    depth_hists_[s]->record(depth);
    depth_peaks_[s]->raise_to(depth);
  };
  try {
    sample_depth();
    // run_until is INCLUSIVE of its end time, so a bounded shard stops at
    // bound - 1: only events strictly before the bound run.
    const SimTime end = bounds != nullptr ? (*bounds)[s] - SimTime{1}
                                          : SimTime{kNever};
    const std::optional<SimTime> head = queue.next_time();
    if (head.has_value() && *head <= end) {
      lane.head = head->micros;
      queue.run_until(end, std::numeric_limits<std::size_t>::max());
    }
    sample_depth();
  } catch (...) {
    lane.error = std::current_exception();
  }
  if (!shard_stall_hists_.empty()) {
    lane.run_end_wall = telemetry_->wall_micros();
  }
}

EpochStats EpochDriver::drive() { return drive_impl(nullptr); }

EpochStats EpochDriver::drive_until(const std::vector<SimTime>& bounds) {
  if (bounds.size() != queues_.size()) {
    throw std::invalid_argument("drive_until: one bound per shard required");
  }
  return drive_impl(&bounds);
}

EpochStats EpochDriver::drive_impl(const std::vector<SimTime>* bounds) {
  std::fill(lanes_.begin(), lanes_.end(), ShardLane{});
  pool_.run_blocks(queues_.size(), [&](std::size_t s, std::size_t) {
    run_shard(s, bounds);
  });

  // The serial step after the join: fold the lanes in shard order.
  const std::int64_t drive_end =
      telemetry_ != nullptr && telemetry_->wallclock()
          ? telemetry_->wall_micros()
          : 0;
  EpochStats stats;
  stats.barriers = 1;
  std::int64_t first_head = kNever;
  std::exception_ptr error;
  for (const ShardLane& lane : lanes_) {
    first_head = std::min(first_head, lane.head);
    if (error == nullptr) error = lane.error;
  }
  if (first_head != kNever) stats.epochs = 1;
  lifetime_.merge(stats);
  if (telemetry_ != nullptr) {
    if (!telemetry_->wallclock() && first_head != kNever &&
        error == nullptr) {
      // Deterministic sim-time span: earliest head to the latest clock.
      SimTime extent{first_head};
      for (const EventQueue* queue : queues_) {
        extent = std::max(extent, queue->now());
      }
      telemetry_->driver().trace.record_span(
          "epoch", "epoch", first_head, extent.micros - first_head + 1);
    }
    for (std::size_t s = 0; s < shard_stall_hists_.size(); ++s) {
      shard_stall_hists_[s]->record(drive_end - lanes_[s].run_end_wall);
    }
    if (barrier_stall_hist_ != nullptr) {
      barrier_stall_hist_->record(telemetry_->wall_micros() - drive_end);
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
  return stats;
}

}  // namespace fnda
