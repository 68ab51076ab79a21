// Drives the sharded exchange's event queues.
//
// Every trader trades on its account's home shard, so shards never
// exchange messages (the bus throws at the sender on any cross-shard
// send).  Each shard's event queue is therefore causally independent of
// every other, and a drive is one parallel region: a single
// WorkerPool::run_blocks call with one block per shard.  A block samples
// its shard's queue depth, runs the queue to quiescence (or, in a
// bounded drive, up to just before the shard's bound), samples the depth
// again and stamps its wall-clock run end.  The pool's join is the
// drive's one barrier; after it the driver thread folds the per-shard
// lanes into the drive's stats, telemetry and error.
//
// The pool's threads stay parked between drives, so a drive starts no
// thread.  Blocks are claimed off the pool's cursor, so a worker that
// finishes a cheap shard immediately takes the next one.
//
// Determinism: each shard is run by exactly one block and touches only
// its own queue, lane and shard registry, so event order, tie-breaking
// and RNG draw order are bit-identical for every worker count,
// including 1.
#pragma once

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
  /// Drives in which some shard had an event below its bound.
  std::size_t epochs = 0;
  /// Always 0: shards never exchange messages.  Kept only because the
  /// benchmark driver still reads it (ROADMAP item 1 stops reading it).
  std::size_t injected = 0;
  /// Barrier crossings: one pool join per drive.
  std::size_t barriers = 0;
  /// Always 0: a drive has no window to widen.  Kept only because the
  /// benchmark driver still reads it (ROADMAP item 1 stops reading it).
  std::size_t widened = 0;

  void merge(const EpochStats& other) {
    epochs += other.epochs;
    injected += other.injected;
    barriers += other.barriers;
    widened += other.widened;
  }

  bool operator==(const EpochStats&) const = default;
};

/// Drives a set of per-shard event queues on the lanes of a borrowed
/// WorkerPool.  Stateless between drives; construct once per exchange and
/// call drive() whenever work is pending.
class EpochDriver {
 public:
  /// `pool` must outlive the driver and run nothing else during a drive.
  EpochDriver(std::vector<EventQueue*> queues, WorkerPool& pool);

  /// Runs every queue until it is empty; the calling thread joins the
  /// pool as worker 0.  If a shard's event handler throws, that shard
  /// stops at the throw while every other shard still runs to the end of
  /// the drive, and the lowest-shard-index exception is rethrown here.
  EpochStats drive();

  /// Bounded drive: like drive(), but shard `s` executes only events
  /// strictly before `bounds[s]` (one entry per shard).  Events at or
  /// beyond the bound stay queued, and a later drive()/drive_until()
  /// resumes them.  Used by the adversarial co-simulation to stop every
  /// shard mid-round (before its round close) while attack searches
  /// overlap on background threads.
  EpochStats drive_until(const std::vector<SimTime>& bounds);

  /// Wires the driver into the session telemetry: cumulative epoch and
  /// barrier-crossing counters (the per-drive EpochStats struct stays
  /// the drive() return value), a per-shard queue-depth sample before and
  /// after each shard's run, and a sim-time `epoch` trace span per drive.
  /// In wallclock mode the driver's serial step after the join is timed
  /// into a barrier-stall histogram and each shard's wait between the
  /// end of its run and the end of the drive into a per-shard stall
  /// histogram — the deliberately nondeterministic metrics.
  void bind_telemetry(obs::SessionTelemetry& session);

 private:
  /// A time no event reaches: the head of a shard with no event below its
  /// bound, and the run end of an unbounded drive.
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  /// Per-shard results of one drive, written only by the block that runs
  /// the shard and read by the driver after the join.  Padded so
  /// neighbouring shards never share a cache line.
  struct alignas(64) ShardLane {
    std::int64_t head = kNever;     ///< first event below the bound
    std::int64_t run_end_wall = 0;  ///< wallclock at the end of the run
    std::exception_ptr error;
  };

  void run_shard(std::size_t s, const std::vector<SimTime>* bounds) noexcept;
  EpochStats drive_impl(const std::vector<SimTime>* bounds);

  std::vector<EventQueue*> queues_;
  WorkerPool& pool_;
  std::vector<ShardLane> lanes_;

  // Telemetry (null/empty until bind_telemetry).  Lifetime counters feed
  // the registry; the per-drive stats remain the drive() contract.
  obs::SessionTelemetry* telemetry_ = nullptr;
  EpochStats lifetime_;
  obs::Histogram* barrier_stall_hist_ = nullptr;  // wallclock mode only
  std::vector<obs::Histogram*> depth_hists_;      // one per shard
  std::vector<obs::Gauge*> depth_peaks_;          // one per shard
  std::vector<obs::Histogram*> shard_stall_hists_;  // wallclock mode only
};

}  // namespace fnda
