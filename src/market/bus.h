// In-process message bus with simulated network behaviour.
//
// Deliveries are scheduled on the EventQueue after a configurable latency
// (base + uniform jitter) and may be duplicated or dropped.  Duplicates
// carry the original MessageId.  The bus knows at send time which copy
// will arrive second and hands that one to `Endpoint::on_repeat`, so a
// receiver that wants exactly-once arrival (the server) ignores repeats
// without keeping any id history.
//
// Throughput substrate: endpoint addresses are interned to dense
// `AddressId`s at attach()/intern() time, so routing is an array index
// rather than a string hash (string-accepting overloads remain for
// convenience and tests).  Envelopes live in a slab (deque + free list)
// instead of being heap-allocated per send, and in-flight deliveries are
// lightweight (slot, destination) records batched by the EventQueue: all
// same-instant deliveries to one endpoint arrive through a single
// `Endpoint::on_batch` call, in send order.  Timers ride the same queue
// and reach the endpoint at their target through `Endpoint::on_timer`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "market/address_space.h"
#include "market/clock.h"
#include "market/messages.h"
#include "obs/telemetry.h"

namespace fnda {

/// A delivered message with transport metadata.
struct Envelope {
  MessageId id;
  AddressId from;
  AddressId to;
  SimTime sent_at;
  SimTime delivered_at;
  Message payload;
};

/// Anything attachable to the bus.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Envelope& envelope) = 0;
  /// Same-instant deliveries to this endpoint arrive as one batch, in
  /// send order.  Overriding lets a receiver hoist per-volley work (the
  /// server validates bid volleys this way); the default dispatches
  /// message by message, which is always equivalent.
  virtual void on_batch(const Envelope* const* envelopes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_message(*envelopes[i]);
  }
  /// The later-arriving copy of a bus duplicate (same MessageId as a copy
  /// already delivered here).  It never arrives inside a batch: a batch
  /// holding one is split around it.  The default treats it as a fresh
  /// message, which keeps delivery at-least-once.
  virtual void on_repeat(const Envelope& envelope) { on_message(envelope); }
  /// A due timer scheduled with this endpoint's address as its target.
  /// The default ignores it.
  virtual void on_timer(const Timer&) {}
};

struct BusConfig {
  SimTime base_latency{1'000};  // 1ms
  SimTime jitter{500};          // uniform [0, jitter)
  double duplicate_probability = 0.0;
  double drop_probability = 0.0;
  /// Message-id namespace: bus `s` of a sharded exchange mints ids
  /// first_message_id, +stride, +2·stride, … so ids are globally unique
  /// without a shared counter.  Standalone buses keep (0, 1).
  std::uint64_t first_message_id = 0;
  std::uint64_t message_id_stride = 1;
};

struct BusStats {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t duplicated = 0;
  std::size_t dropped = 0;
  /// Receiver detached — or detached and re-attached — before delivery.
  std::size_t dead_lettered = 0;
  /// Always 0: shards never exchange messages.  Both stay only because
  /// the benchmark driver still reads them (ROADMAP item 1 stops reading
  /// them); neither is exported as a metric.
  std::size_t forwarded = 0;
  std::size_t mailbox_overflow = 0;

  /// Conservation: sent == delivered + dropped + dead_lettered −
  /// duplicated, per shard and on the merged stats alike.
  void merge(const BusStats& other) {
    sent += other.sent;
    delivered += other.delivered;
    duplicated += other.duplicated;
    dropped += other.dropped;
    dead_lettered += other.dead_lettered;
    forwarded += other.forwarded;
    mailbox_overflow += other.mailbox_overflow;
  }
};

class MessageBus : public EventQueue::DeliverySink {
 public:
  /// Standalone bus: owns a private AddressSpace.
  MessageBus(EventQueue& queue, BusConfig config, Rng rng);
  /// Shard-local bus of a sharded exchange: names and ownership live in
  /// the shared `addresses`, and a send to an address another shard owns
  /// throws std::logic_error at the sender, naming both shards.  The
  /// check runs on every send, so a shard's event history decides
  /// deterministically whether it fires.
  MessageBus(EventQueue& queue, BusConfig config, Rng rng,
             AddressSpace& addresses, std::uint32_t shard);
  ~MessageBus() override;
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Returns the dense id for `address`, creating a (detached) directory
  /// entry on first sight.  Ids are stable for the bus's lifetime.
  AddressId intern(const std::string& address);
  /// The string name behind an interned id (for logs and tests).
  const std::string& name_of(AddressId address) const;

  /// Attaches an endpoint at `address`; the endpoint must outlive the bus
  /// or be detached first.  Re-attaching an address replaces the handler;
  /// messages sent to the previous attachment that are still in flight
  /// are dead-lettered, not delivered to the replacement.
  AddressId attach(const std::string& address, Endpoint& endpoint);
  void attach(AddressId address, Endpoint& endpoint);
  void detach(const std::string& address);
  void detach(AddressId address);

  /// Queues a message; returns its id (shared by any duplicates).
  MessageId send(AddressId from, AddressId to, Message payload);
  MessageId send(const std::string& from, const std::string& to,
                 Message payload);
  /// Concrete-type fast path: assigns the alternative straight into the
  /// pooled envelope instead of building a temporary variant and moving
  /// it.  Behaviour (ids, RNG draws, ordering) is identical to the
  /// Message overload.
  template <typename M,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<M>, Message> &&
                std::is_constructible_v<Message, M&&>>>
  MessageId send(AddressId from, AddressId to, M&& payload) {
    return send_impl(from, to, std::forward<M>(payload));
  }

  const BusStats& stats() const { return stats_; }

  /// Joins the shard's telemetry world: registers the BusStats cells as
  /// callback counters (the structs stay the storage; the registry is
  /// the exposition/merge layer) and creates the transport histograms
  /// (delivery latency in sim microseconds, endpoint batch size).  Call
  /// once at wiring time; a bus never bound records nothing extra.
  void bind_telemetry(obs::ShardTelemetry& telemetry);

  /// EventQueue::DeliverySink — one call per run of same-instant
  /// deliveries.  Keys carry the destination and the binding generation
  /// captured at send time (see pack_key); consecutive equal keys are
  /// dispatched to their endpoint as one batch.
  void deliver_run(SimTime at, const EventQueue::Delivery* run,
                   std::size_t count) override;
  /// EventQueue::DeliverySink — hands a due timer to the endpoint now
  /// attached at its target, or drops it when none is.  A timer is not a
  /// message: it mints no id, draws no RNG and leaves BusStats alone.
  void fire(const Timer& timer) override;

 private:
  /// Hot per-address routing state, kept to 16 bytes so delivery touches
  /// one cache line per four addresses; names live in a cold array.
  struct DirectoryEntry {
    Endpoint* endpoint = nullptr;
    /// Bumped on every attach and detach; an envelope only delivers if
    /// the binding it captured at send time still matches, so messages
    /// in flight across a re-attach dead-letter instead of silently
    /// reaching the replacement endpoint.  The binding rides in the high
    /// half of the delivery key, so the check is one compare per batch.
    std::uint32_t binding = 0;
  };

  static constexpr std::uint64_t pack_key(std::uint32_t to,
                                          std::uint32_t binding) {
    return (std::uint64_t{binding} << 32) | to;
  }

  // Envelope slab: fixed-size chunks so slot lookup is a shift and a
  // mask (a deque would divide by its block stride) while envelope
  // addresses stay stable when the slab grows mid-delivery.
  static constexpr std::size_t kPoolChunkBits = 10;  // 1024 envelopes
  static constexpr std::size_t kPoolChunkSize = std::size_t{1}
                                                << kPoolChunkBits;
  static constexpr std::size_t kPoolChunkMask = kPoolChunkSize - 1;

  Envelope& slot_ref(std::uint32_t slot) {
    return pool_[slot >> kPoolChunkBits][slot & kPoolChunkMask];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) {
    if (slot < repeat_.size()) repeat_[slot] = 0;
    free_.push_back(slot);
  }
  /// Schedules the slot's delivery; returns its delivery time.
  SimTime schedule_slot(std::uint32_t slot, std::uint64_t key);
  SimTime draw_latency();
  /// Grows the (lazily sized) directory to cover `id`.
  DirectoryEntry& ensure_directory(std::uint32_t id) {
    if (id >= directory_.size()) directory_.resize(id + 1);
    return directory_[id];
  }
  /// Throws the cross-shard send error (cold path of send_impl).
  [[noreturn]] void reject_cross_shard(AddressId to,
                                       std::uint32_t owner) const;

  /// Shared send body; `payload` may be the Message variant or any of its
  /// alternatives (assigned directly into the pooled envelope).
  template <typename M>
  MessageId send_impl(AddressId from, AddressId to, M&& payload) {
    if (to.value() >= space_->size()) {
      throw std::out_of_range(
          "MessageBus::send: unknown destination AddressId");
    }
    const std::uint32_t owner = space_->owner_shard(to);
    if (owner != shard_ && owner != AddressSpace::kUnowned) {
      reject_cross_shard(to, owner);
    }
    const MessageId id{next_message_};
    next_message_ += config_.message_id_stride;
    ++stats_.sent;

    if (rng_.bernoulli(config_.drop_probability)) {
      ++stats_.dropped;
      return id;
    }

    const std::uint32_t slot = acquire_slot();
    Envelope& envelope = slot_ref(slot);
    envelope.id = id;
    envelope.from = from;
    envelope.to = to;
    envelope.sent_at = queue_.now();
    envelope.delivered_at = SimTime{};
    envelope.payload = std::forward<M>(payload);
    const std::uint64_t key =
        pack_key(to.value(), ensure_directory(to.value()).binding);

    const SimTime at = schedule_slot(slot, key);
    if (rng_.bernoulli(config_.duplicate_probability)) {
      ++stats_.duplicated;
      const std::uint32_t duplicate = acquire_slot();
      slot_ref(duplicate) = slot_ref(slot);  // duplicates are rare
      // The queue runs equal times in push order, so the duplicate is
      // the repeat unless it is due strictly before the original.
      mark_repeat(schedule_slot(duplicate, key) < at ? slot : duplicate);
    }
    return id;
  }
  /// One validated batch (consecutive equal keys) to one endpoint.
  void deliver_group(SimTime at, std::uint64_t key,
                     const EventQueue::Delivery* run, std::size_t count);

  // repeat_[slot] marks the copy of a duplicated message that arrives
  // second.  Sized at the first duplicate and cleared as slots are
  // released; a bus that never duplicates leaves it empty.
  bool is_repeat(std::uint32_t slot) const {
    return slot < repeat_.size() && repeat_[slot] != 0;
  }
  void mark_repeat(std::uint32_t slot);

  EventQueue& queue_;
  BusConfig config_;
  Rng rng_;

  // Standalone buses own a private AddressSpace; sharded buses share the
  // exchange's.  Either way `space_` is the one source of names/ids and
  // directory_ is lazily sized to cover the ids this bus has touched.
  std::unique_ptr<AddressSpace> owned_space_;
  AddressSpace* space_ = nullptr;
  std::uint32_t shard_ = 0;

  std::vector<DirectoryEntry> directory_;        // indexed by AddressId

  std::vector<std::unique_ptr<Envelope[]>> pool_;  // chunked slab
  std::size_t pool_size_ = 0;                    // slots ever created
  std::vector<std::uint32_t> free_;              // recycled slots
  std::vector<const Envelope*> deliver_scratch_;
  std::vector<std::uint8_t> repeat_;             // empty until a duplicate

  BusStats stats_;
  std::uint64_t next_message_ = 0;

  // Telemetry instruments (null until bind_telemetry; recording through
  // a null pointer is skipped, and FNDA_NO_TELEMETRY empties the bodies).
  // Per-delivery histograms sample every stride-th delivered group — the
  // tick advances in this shard's deterministic delivery order, so the
  // sampled stream is bit-identical at any worker count.
  static constexpr std::uint64_t kDeliverySampleStride = 16;
  obs::Histogram* delivery_latency_hist_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  std::uint64_t delivery_sample_tick_ = 0;
};

}  // namespace fnda
