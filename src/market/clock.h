// Virtual time and the discrete-event queue driving the market simulator.
//
// The queue is a bucketed calendar queue (a one-level timing wheel with a
// sorted overflow calendar) rather than a comparison heap: scheduling is
// an O(1) bucket append, and draining distributes one bucket at a time
// into per-microsecond instant lists instead of paying a log-n
// percolation per event.  Events still fire in exact (time,
// insertion-order) order — every move (append, stable distribution,
// stable early-buffer insertion) preserves relative order, so no sort or
// tiebreak key is ever needed — and deterministic replays are preserved
// bit-for-bit relative to the old heap implementation.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/ids.h"

namespace fnda {

/// Simulated time in microseconds since simulation start.
struct SimTime {
  std::int64_t micros = 0;

  constexpr auto operator<=>(const SimTime&) const = default;
  constexpr SimTime operator+(SimTime other) const {
    return SimTime{micros + other.micros};
  }
  constexpr SimTime operator-(SimTime other) const {
    return SimTime{micros - other.micros};
  }

  static constexpr SimTime millis(std::int64_t ms) {
    return SimTime{ms * 1000};
  }
  static constexpr SimTime seconds(std::int64_t s) {
    return SimTime{s * 1'000'000};
  }
};

/// A timer: plain data the queue holds until it is due and then hands to
/// its sink.  The bus passes it to the endpoint attached at `target`;
/// what `kind` and `word` mean is up to that endpoint (a round id, a row
/// of its own table).
struct Timer {
  enum class Kind : std::uint8_t { kRoundClose, kAnnounce, kRetry };
  Kind kind = Kind::kRoundClose;
  AddressId target;
  std::uint64_t word = 0;
};

/// Single-threaded discrete-event scheduler.
///
/// Events fire in (time, insertion-order) order, so two events scheduled
/// for the same instant run FIFO — deterministic replays depend on this.
///
/// Every event is plain data, owned by one registered DeliverySink (the
/// MessageBus): a *delivery* is a (slot, destination) record, a *timer*
/// is a `Timer`.  Deliveries that share a timestamp and a destination and
/// are adjacent in the total order are handed to the sink as one batch,
/// which lets the receiving endpoint validate a whole volley of
/// same-instant messages in a single pass.  Batching never reorders
/// anything: a batch is exactly a maximal run of consecutive deliveries
/// in the (time, insertion-order) sequence, and a timer ends it.
class EventQueue {
 public:
  /// One scheduled delivery as handed to the sink: `slot` indexes the
  /// sink's own storage, `key` is the batch key recorded at schedule
  /// time (opaque to the queue — the bus packs the destination and its
  /// attach-generation into it).
  struct Delivery {
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };

  /// Owner of slab-allocated deliveries (see MessageBus) and of timers.
  /// One `deliver_run` call covers the maximal run of consecutive
  /// deliveries sharing a timestamp, in send order.  Handing the sink the
  /// whole instant at once lets it prefetch every slot before
  /// dispatching and group consecutive equal keys itself.  `fire` gets
  /// one due timer.
  class DeliverySink {
   public:
    virtual ~DeliverySink() = default;
    virtual void deliver_run(SimTime at, const Delivery* run,
                             std::size_t count) = 0;
    virtual void fire(const Timer& timer) = 0;
  };

  /// Registers the (single) delivery sink.  Pass nullptr to unregister;
  /// pending deliveries and timers of an unregistered sink are silently
  /// discarded.
  void set_delivery_sink(DeliverySink* sink) { sink_ = sink; }

  /// Schedules `timer` at absolute time `at`.  Scheduling in the past is
  /// clamped to now (the timer fires next).
  void schedule_timer(SimTime at, const Timer& timer);
  /// Schedules a sink delivery; `key` groups batchable deliveries (the
  /// bus uses the destination address id).  Returns the (clamped)
  /// delivery time.
  SimTime schedule_delivery(SimTime at, std::uint32_t slot, std::uint64_t key);

  /// Executes the earliest pending event; returns false if none remain.
  bool step();

  /// Runs events until the queue is empty or `max_events` have executed;
  /// returns the number executed.  The cap guards against event loops
  /// that reschedule themselves forever.
  std::size_t run(std::size_t max_events = 1'000'000);

  /// Runs all events scheduled at or before `until`.
  std::size_t run_until(SimTime until, std::size_t max_events = 1'000'000);

  /// Timestamp of the earliest pending event, or nullopt when empty.
  /// Non-const: may advance the internal cursor to find the next bucket
  /// (a pure lookahead — nothing executes and now() is unchanged).
  std::optional<SimTime> next_time();

  SimTime now() const { return now_; }
  std::size_t pending() const { return size_; }

 private:
  // Bucket geometry: 2^8 us = 256 us per bucket, 1024 buckets on the
  // wheel -> ~262 ms of horizon before events spill into the overflow
  // calendar.  Default bus latencies land a handful of buckets ahead.
  // (Finer 1 us buckets would make the per-bucket sort a no-op, but
  // measured slower: appends scatter over many small slot vectors
  // instead of streaming into a few large ones.)
  static constexpr int kBucketBits = 8;
  static constexpr std::size_t kBucketWidth = std::size_t{1} << kBucketBits;
  static constexpr int kWheelBits = 10;
  static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSlots - 1;
  static constexpr std::size_t kBitmapWords = kWheelSlots / 64;

  /// 24-byte POD: wheel moves and instant distribution are memcpy-class.
  /// No sequence number is stored — insertion order is preserved
  /// structurally (appends everywhere, stable distribution, stable
  /// early-buffer insertion), so FIFO-among-equal-times never needs a
  /// tiebreak key.  A timer packs into the delivery fields: its word in
  /// `key`, its target in `slot`, its kind in what would be padding.
  struct Entry {
    SimTime at;
    std::uint64_t key = 0;     // delivery batch key, or the timer's word
    std::uint32_t slot = 0;    // delivery slab index, or the timer's target
    bool is_delivery = false;
    Timer::Kind kind{};        // timers only
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) == 24);

  static constexpr std::int64_t bucket_of(SimTime at) {
    return at.micros >> kBucketBits;
  }
  std::int64_t horizon() const {
    return cursor_ + static_cast<std::int64_t>(kWheelSlots);
  }

  void push(const Entry& entry);
  /// Hands a bucket that owns no buffer the most recently drained one.
  void take_spare(std::vector<Entry>& bucket);
  /// True if something is ready to execute; advances the cursor to the
  /// next non-empty bucket and distributes it into the per-offset
  /// instant lists when the current bucket is exhausted.
  bool ensure_ready();
  /// Executes exactly one ready entry (ensure_ready must have succeeded).
  void execute_one();
  /// Executes ready entries up to `budget` with timestamps <= `until`,
  /// batching deliveries; returns the number executed.
  std::size_t drain_ready(std::size_t budget, SimTime until);
  /// Moves overflow buckets that entered the horizon onto the wheel.
  void pull_overflow();
  void mark_occupied(std::size_t slot_index);
  void clear_occupied(std::size_t slot_index);
  /// Distance (in buckets) from cursor_ to the first occupied wheel slot.
  std::size_t next_occupied_distance() const;
  /// Advances instant_offset_ to the next non-empty instant list.
  void seek_instant();
  /// The timestamp of the next entry to execute (early_ head, or the
  /// current instant list).  Only valid after ensure_ready() succeeded.
  SimTime head_at();
  bool early_pending() const { return early_index_ < early_.size(); }
  void insert_early(const Entry& entry);

  std::array<std::vector<Entry>, kWheelSlots> wheel_;
  // Buffers of drained buckets, reused last-in first-out by pushes that
  // open a bucket (on the wheel or in the overflow calendar).  Without
  // them every wheel slot would keep the largest bucket it ever held;
  // with them the queue holds about as many buffers as there are buckets
  // occupied at once, and pushes land in memory that is still warm.
  std::vector<std::vector<Entry>> spare_buckets_;
  std::array<std::uint64_t, kBitmapWords> occupied_{};
  std::map<std::int64_t, std::vector<Entry>> overflow_;
  // The bucket at cursor_ is drained through one list per microsecond
  // offset: distribution is a single stable pass, and each list is one
  // instant in push (= sequence) order, so draining never sorts or
  // compares timestamps.
  std::array<std::vector<Entry>, kBucketWidth> instant_;
  std::array<std::uint64_t, kBucketWidth / 64> instant_occupied_{};
  std::size_t instant_offset_ = 0;  // offset currently being drained
  std::size_t instant_index_ = 0;   // position within that list
  std::size_t instant_pending_ = 0;  // undrained entries across lists
  // Entries pushed behind the drain position (only possible while now_
  // lags the cursor after a partial run_until); executed first, in
  // (at, sequence) order.
  std::vector<Entry> early_;
  std::size_t early_index_ = 0;
  std::vector<Delivery> batch_scratch_;
  std::int64_t cursor_ = 0;         // absolute bucket index being drained
  std::size_t wheel_count_ = 0;     // entries on the wheel (not instant_)
  std::size_t size_ = 0;            // all pending entries
  SimTime now_{};
  DeliverySink* sink_ = nullptr;
};

}  // namespace fnda
