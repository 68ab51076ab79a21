#include "market/epoch.h"

#include <algorithm>
#include <barrier>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fnda {

namespace {

/// Window end for an epoch whose causal bound is infinite (isolated
/// topology or a single shard): far enough that every pending event is
/// inside it, small enough that no queue arithmetic can overflow.
constexpr SimTime kUnboundedWindow{std::numeric_limits<std::int64_t>::max() /
                                   2};

}  // namespace

EpochDriver::EpochDriver(Fabric& fabric, std::vector<EpochShard> shards,
                         SimTime lookahead, bool adaptive)
    : fabric_(fabric),
      shards_(std::move(shards)),
      lookahead_(std::max(lookahead, SimTime{1})),
      adaptive_(adaptive) {
  for (std::size_t s = 0; s < shards_.size(); ++s) lanes_.emplace_back();
}

void EpochDriver::bind_telemetry(obs::SessionTelemetry& session) {
  telemetry_ = &session;
  obs::MetricsRegistry& registry = session.driver().metrics;
  registry.counter_fn("fnda_epoch_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.epochs);
  });
  registry.counter_fn("fnda_epoch_injected_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.injected);
  });
  registry.counter_fn("fnda_epoch_barriers_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.barriers);
  });
  registry.counter_fn("fnda_epoch_widened_total", [this] {
    return static_cast<std::uint64_t>(lifetime_.widened);
  });
  // Merge-scratch footprint (keys + pointer batches): the max over the
  // per-shard high-water marks, each monotone and a pure function of
  // per-epoch traffic, so it merges deterministically across thread
  // counts.
  registry.counter_fn("fnda_epoch_merge_arena_high_water_bytes", [this] {
    std::size_t high = 0;
    for (const ShardLane& lane : lanes_) {
      high = std::max(high, lane.arena.stats().high_water);
    }
    return static_cast<std::uint64_t>(high);
  });
  epoch_advance_hist_ = &registry.histogram("fnda_epoch_advance_us");
  window_hist_ = &registry.histogram("fnda_epoch_window_us");
  if (session.wallclock()) {
    barrier_stall_hist_ = &registry.histogram("fnda_epoch_barrier_stall_us");
  }
  // Depth and stall samples go into each shard's own registry so the
  // merged snapshot still folds them in canonical shard order.
  depth_hists_.assign(shards_.size(), nullptr);
  depth_peaks_.assign(shards_.size(), nullptr);
  shard_stall_hists_.clear();
  if (session.wallclock()) {
    shard_stall_hists_.assign(shards_.size(), nullptr);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
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

void EpochDriver::inject_phase() noexcept {
  // Parallel: each worker claims shards off the shared cursor.  The
  // claimed shard's queue, bus, lane, and shard registry are touched by
  // this worker only (per-phase ownership); the preceding barrier
  // ordered these accesses after the run phase that staged the traffic.
  const bool bail = failed_.load(std::memory_order_acquire);
  for (;;) {
    const std::size_t s =
        inject_claim_.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards_.size()) return;
    ShardLane& lane = lanes_[s];
    lane.injected = 0;
    if (bail || errors_[s] != nullptr) {
      lane.next = kEmpty;
      continue;
    }
    try {
      std::vector<RemoteEnvelope>& inbox = lane.inbox;
      inbox.clear();
      fabric_.drain(s, inbox);
      if (!inbox.empty()) {
        // Ring order depends on producer interleaving; (deliver_at,
        // source_shard, sequence) is a total order over one epoch's
        // traffic that does not, so injection order is canonical.  Sort
        // 24-byte POD keys instead of the fat envelopes (Message
        // variants carry strings); the batch of pointers then walks the
        // drain buffer in merge order.
        struct MergeKey {
          std::int64_t deliver_at;
          std::uint64_t sequence;
          std::uint32_t source_shard;
          std::uint32_t index;
        };
        lane.arena.reset();
        std::span<MergeKey> keys =
            lane.arena.make_span<MergeKey>(inbox.size());
        for (std::size_t i = 0; i < inbox.size(); ++i) {
          keys[i] = MergeKey{inbox[i].deliver_at.micros, inbox[i].sequence,
                             inbox[i].source_shard,
                             static_cast<std::uint32_t>(i)};
        }
        std::sort(keys.begin(), keys.end(),
                  [](const MergeKey& a, const MergeKey& b) {
                    if (a.deliver_at != b.deliver_at) {
                      return a.deliver_at < b.deliver_at;
                    }
                    if (a.source_shard != b.source_shard) {
                      return a.source_shard < b.source_shard;
                    }
                    return a.sequence < b.sequence;
                  });
        std::span<RemoteEnvelope*> batch =
            lane.arena.make_span<RemoteEnvelope*>(inbox.size());
        for (std::size_t i = 0; i < inbox.size(); ++i) {
          batch[i] = &inbox[keys[i].index];
        }
        shards_[s].bus->inject_batch(batch.data(), batch.size());
        lane.injected = inbox.size();
      }
      if (!depth_hists_.empty()) {
        // Post-injection depth is a pure function of the event history,
        // so the sample stream is identical for every worker count.
        const auto depth =
            static_cast<std::int64_t>(shards_[s].queue->pending());
        depth_hists_[s]->record(depth);
        depth_peaks_[s]->raise_to(depth);
      }
      const std::optional<SimTime> head = shards_[s].queue->next_time();
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
  // other worker is parked inside the barrier.  All that is left here is
  // the O(shards) reduction — the drain/sort/inject work this step used
  // to do now runs in the inject phase.
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
  std::int64_t m2 = kEmpty;  // second-smallest (ties land here)
  for (const ShardLane& lane : lanes_) {
    stats_.injected += lane.injected;
    lifetime_.injected += lane.injected;
    if (lane.next < m1) {
      m2 = m1;
      m1 = lane.next;
    } else if (lane.next < m2) {
      m2 = lane.next;
    }
  }
  if (m1 == kEmpty) {
    // Every queue is empty and the inject phase just drained every
    // mailbox: quiescent.
    stop_ = true;
    if (barrier_stall_hist_ != nullptr) {
      barrier_stall_hist_->record(telemetry_->wall_micros() - stall_start);
    }
    return;
  }
  const SimTime next{m1};
  const std::int64_t lookahead = lookahead_.micros;
  epoch_end_ = next + lookahead_ - SimTime{1};
  epoch_start_ = next;
  epoch_unbounded_ = false;
  if (adaptive_) {
    if (shards_.size() == 1 ||
        fabric_.topology() == ShardTopology::kIsolated) {
      // No cross-shard message can ever exist (enforced by the bus for
      // kIsolated), so the causal bound is infinite: run every shard to
      // quiescence in this one window.
      epoch_end_ = kUnboundedWindow;
      epoch_unbounded_ = true;
      ++stats_.widened;
      ++lifetime_.widened;
    } else if (m2 != kEmpty ? m2 - m1 >= 2 * lookahead
                            : shards_.size() > 1) {
      // Only the m1-shard has events below m2 (m2 == kEmpty: below
      // anything), so nothing else executes in a widened window.  Cap
      // one: stop lookahead short of m2 so every other shard still sees
      // its inbound traffic injected before its own first event.  Cap
      // two: two lookaheads past m1, the earliest instant a response to
      // the running shard's own sends could arrive.
      const std::int64_t cap_other =
          m2 != kEmpty ? m2 - lookahead : kEmpty;
      const std::int64_t cap_response = m1 + 2 * lookahead - 1;
      const std::int64_t widened = std::min(cap_other, cap_response);
      if (widened > epoch_end_.micros) {
        epoch_end_ = SimTime{widened};
        ++stats_.widened;
        ++lifetime_.widened;
      }
    }
  }
  ++stats_.epochs;
  ++lifetime_.epochs;
  if (telemetry_ != nullptr) {
    if (epoch_advance_hist_ != nullptr && !first_epoch_of_drive_) {
      epoch_advance_hist_->record((next - last_epoch_start_).micros);
    }
    first_epoch_of_drive_ = false;
    last_epoch_start_ = next;
    if (window_hist_ != nullptr && !epoch_unbounded_) {
      window_hist_->record((epoch_end_ - next).micros + 1);
    }
    if (!telemetry_->wallclock() && !epoch_unbounded_) {
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
  // stays frozen; the others finish the epoch in flight (matching the
  // pre-parallel driver), and the window barrier stops everyone next.
  const bool wall = !shard_stall_hists_.empty();
  for (;;) {
    const std::size_t s = run_claim_.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards_.size()) return;
    if (errors_[s] == nullptr) {
      try {
        // run_until is INCLUSIVE of its end time, so a bounded shard is
        // clamped to bound - 1: only events strictly before the bound run.
        SimTime end = epoch_end_;
        if (bounds_ != nullptr) {
          end = std::min(end, (*bounds_)[s] - SimTime{1});
        }
        shards_[s].queue->run_until(end,
                                    std::numeric_limits<std::size_t>::max());
      } catch (...) {
        errors_[s] = std::current_exception();
        failed_.store(true, std::memory_order_release);
      }
    }
    if (wall) lanes_[s].run_end_wall = telemetry_->wall_micros();
  }
}

void EpochDriver::finish_run() noexcept {
  // Drain barrier completion (serial): reset the inject cursor before
  // any worker is released into the inject phase, account how long each
  // shard waited for the slowest one, and record the executed extent of
  // an unbounded window now that it is known.
  ++stats_.barriers;
  ++lifetime_.barriers;
  inject_claim_.store(0, std::memory_order_relaxed);
  if (epoch_unbounded_ && telemetry_ != nullptr && !telemetry_->wallclock() &&
      !failed_.load(std::memory_order_acquire)) {
    SimTime extent = epoch_start_;
    for (const EpochShard& shard : shards_) {
      extent = std::max(extent, shard.queue->now());
    }
    telemetry_->driver().trace.record_span(
        "epoch", "epoch", epoch_start_.micros,
        (extent - epoch_start_).micros + 1);
  }
  if (!shard_stall_hists_.empty()) {
    const std::int64_t barrier_wall = telemetry_->wall_micros();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
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
  if (bounds.size() != shards_.size()) {
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
  const std::size_t shard_count = shards_.size();
  workers_ =
      std::clamp<std::size_t>(threads, 1, shard_count == 0 ? 1 : shard_count);
  stop_ = false;
  failed_.store(false, std::memory_order_relaxed);
  stats_ = EpochStats{};
  first_epoch_of_drive_ = true;
  errors_.assign(shard_count, nullptr);
  inject_claim_.store(0, std::memory_order_relaxed);
  run_claim_.store(0, std::memory_order_relaxed);

  std::barrier window_barrier(static_cast<std::ptrdiff_t>(workers_),
                              [this]() noexcept { advance_window(); });
  std::barrier drain_barrier(static_cast<std::ptrdiff_t>(workers_),
                             [this]() noexcept { finish_run(); });

  auto worker = [&](std::size_t) {
    inject_phase();
    for (;;) {
      window_barrier.arrive_and_wait();  // completion step ran before release
      if (stop_) return;
      run_phase();
      drain_barrier.arrive_and_wait();
      inject_phase();
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
