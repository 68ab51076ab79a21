// Epoch synchronization for the sharded exchange.
//
// Every trader trades on its account's home shard, so shards never
// exchange messages (the bus throws at the sender on any cross-shard
// send).  Each shard's event queue is therefore causally independent of
// every other, and the driver's job is to run them in parallel while
// keeping barriers, bounds, telemetry and failure handling canonical.
// Each epoch is two phases separated by barriers, with almost all work
// on the workers:
//
//   1. (head phase, parallel) workers claim shards from an atomic
//      cursor; for each claimed shard they sample its queue depth and
//      publish its next-event time into its lane;
//   2. (window barrier, serial completion) the driver reduces the
//      per-lane minimum m1 and opens the next window: unbounded when
//      `adaptive` (no shard can affect another, so each runs to
//      quiescence in one epoch), else [m1, m1 + lookahead − 1];
//   3. (run phase, parallel) workers claim shards again and run each
//      claimed queue up to the window end;
//   4. (drain barrier, serial completion) per-shard stall accounting;
//      the cycle repeats until no shard has a pending event.
//
// The workers are the lanes of the exchange's WorkerPool: each drive is
// one run_blocks call with one block per worker, and every block runs the
// loop above, parked in the barriers between phases.  The pool's threads
// stay parked between drives, so a drive starts no thread.
//
// Dynamic claiming doubles as load balancing: when several shards close
// rounds at the same epoch boundary, the clearing/validation work fans
// out across the workers instead of serializing behind a static stride,
// and a worker that finishes a cheap shard immediately claims the next.
//
// Determinism: within a phase each claimed shard is touched by exactly
// one worker, phases are barrier-separated, and the window is computed
// from the lane minima, which are a pure function of event history.
// Event order, tie-breaking, and RNG draw order are therefore
// bit-identical for every worker count, including 1.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "common/worker_pool.h"
#include "market/clock.h"
#include "obs/telemetry.h"

namespace fnda {

struct EpochStats {
  std::size_t epochs = 0;    // windows executed
  /// Always 0: shards never exchange messages.  Kept because the
  /// benchmark driver reads it.
  std::size_t injected = 0;
  std::size_t barriers = 0;  // barrier crossings (window + drain syncs)
  std::size_t widened = 0;   // epochs whose window exceeded the lookahead

  void merge(const EpochStats& other) {
    epochs += other.epochs;
    injected += other.injected;
    barriers += other.barriers;
    widened += other.widened;
  }
};

/// Drives a set of per-shard event queues to quiescence on the lanes of
/// a borrowed WorkerPool.  Stateless between drives; construct once per
/// exchange and call drive() whenever work is pending.
class EpochDriver {
 public:
  /// `pool` must outlive the driver and run nothing else during a drive.
  /// `lookahead` (>= 1 µs) is the fixed window length.  `adaptive` runs
  /// each drive as one unbounded window; turning it off forces the
  /// fixed-lookahead schedule (the bench's barrier-reduction baseline).
  EpochDriver(std::vector<EventQueue*> queues, WorkerPool& pool,
              SimTime lookahead, bool adaptive = true);

  /// Runs until every queue is empty, on min(pool lanes, shard count)
  /// workers; the calling thread is worker 0.  If a shard's event handler
  /// throws, every worker stops at the next window barrier and the
  /// lowest-shard-index exception is rethrown here — no hang, no partial
  /// epoch on other shards beyond the one in flight.
  EpochStats drive();

  /// Bounded drive: like drive(), but shard `s` executes only events
  /// strictly before `bounds[s]` (one entry per shard).  Events at or
  /// beyond the bound stay queued — the drive reports quiescence once no
  /// shard has a pending event below its bound — and a later
  /// drive()/drive_until() resumes them.  Used by the adversarial
  /// co-simulation to stop every shard mid-round (before its round
  /// close) while attack searches overlap on background threads.
  EpochStats drive_until(const std::vector<SimTime>& bounds);

  /// Wires the driver into the session telemetry: cumulative epoch,
  /// barrier-crossing, and widened-window counters (the per-drive
  /// EpochStats struct stays the drive() return value), a sim-time
  /// epoch-advance histogram, a bounded-window-width histogram, and a
  /// per-shard queue-depth sample at every head phase.  In wallclock
  /// mode the serial completion step is additionally timed into a
  /// barrier-stall histogram and each shard's wait between finishing its
  /// run phase and the drain barrier into a per-shard stall histogram —
  /// the deliberately nondeterministic metrics.
  void bind_telemetry(obs::SessionTelemetry& session);

 private:
  /// lane.next value for a shard with an empty queue.
  static constexpr std::int64_t kEmpty =
      std::numeric_limits<std::int64_t>::max();

  /// Per-shard state with per-phase ownership: written only by the
  /// worker that claimed the shard in the current phase (or by the
  /// serial completion step); barriers separate the phases.  Padded so
  /// concurrently-claimed neighbours never share a cache line.
  struct alignas(64) ShardLane {
    std::int64_t next = kEmpty;     ///< queue head (bound-clamped)
    std::int64_t run_end_wall = 0;  ///< wallclock at end of run phase
  };

  /// Parallel phases (run on every worker) and serial barrier
  /// completions (run on exactly one thread while the others are parked
  /// inside the barrier, whose release edge publishes the writes).
  void head_phase() noexcept;
  void run_phase() noexcept;
  void advance_window() noexcept;  // window barrier completion
  void finish_run() noexcept;      // drain barrier completion
  EpochStats drive_impl();

  std::vector<EventQueue*> queues_;
  WorkerPool& pool_;
  SimTime lookahead_;
  bool adaptive_;
  /// Per-shard execution bounds for the current drive (null: unbounded).
  const std::vector<SimTime>* bounds_ = nullptr;

  // Epoch state, written by the barrier completion steps.
  SimTime epoch_end_{};
  SimTime epoch_start_{};
  bool stop_ = false;
  EpochStats stats_;
  std::vector<ShardLane> lanes_;
  alignas(64) std::atomic<std::size_t> head_claim_{0};
  alignas(64) std::atomic<std::size_t> run_claim_{0};
  std::vector<std::exception_ptr> errors_;
  std::atomic<bool> failed_{false};

  // Telemetry (null/empty until bind_telemetry).  Lifetime counters feed
  // the registry; per-drive stats_ remains the drive() contract.
  obs::SessionTelemetry* telemetry_ = nullptr;
  EpochStats lifetime_;
  obs::Histogram* epoch_advance_hist_ = nullptr;
  obs::Histogram* window_hist_ = nullptr;         // bounded windows only
  obs::Histogram* barrier_stall_hist_ = nullptr;  // wallclock mode only
  std::vector<obs::Histogram*> depth_hists_;      // one per shard
  std::vector<obs::Gauge*> depth_peaks_;          // one per shard
  std::vector<obs::Histogram*> shard_stall_hists_;  // wallclock mode only
  SimTime last_epoch_start_{};
  bool first_epoch_of_drive_ = true;
};

}  // namespace fnda
