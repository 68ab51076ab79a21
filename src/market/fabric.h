// Cross-shard fabric: the shared pieces that connect per-shard event
// loops without sharing their hot state.
//
// A sharded exchange runs one EventQueue + MessageBus + server world per
// shard, each owned by exactly one worker thread.  The fabric provides the
// only two things shards must share:
//
//   * AddressSpace — one global name <-> AddressId interning table, plus
//     the owning shard of every attached address.  Interning and claiming
//     are mutex-guarded (setup-time operations); the owner lookup on the
//     send hot path is a lock-free chunked-atomic read.
//   * ShardMailbox — on a kAllToAll fabric, one fixed-capacity MPSC ring
//     per shard carrying cross-shard messages.  Senders push during an
//     epoch; the destination drains at the epoch barrier, sorts by
//     (deliver_at, source_shard, sequence), and injects — so the merge
//     order is bit-identical for every thread count and every ring
//     interleaving.  A kIsolated fabric (the exchange's declaration)
//     carries no cross-shard traffic and allocates no rings.
//
// Backpressure: a full mailbox rejects the push.  The sending bus accounts
// the message as dropped (plus a mailbox_overflow counter), which is
// deterministic — per-epoch traffic volume does not depend on thread
// timing — and models a saturated inter-server link.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "market/clock.h"
#include "market/messages.h"

namespace fnda {

/// A message crossing shards, as staged in a mailbox.  `sequence` is the
/// sending bus's per-shard forwarding counter; together with
/// (deliver_at, source_shard) it gives the destination a total order that
/// is independent of thread interleaving.
struct RemoteEnvelope {
  MessageId id;
  AddressId from;
  AddressId to;
  SimTime sent_at{};
  SimTime deliver_at{};
  std::uint64_t sequence = 0;
  std::uint32_t source_shard = 0;
  Message payload;
};

/// Global address book shared by every shard's MessageBus.
///
/// Ids are dense and stable for the fabric's lifetime.  intern()/claim()
/// take a mutex and are intended for wiring time; owner_shard() is the
/// per-send hot read and is lock-free (chunked atomics under a fixed
/// top-level array, so growth never moves a slot another thread may read).
class AddressSpace {
 public:
  /// owner_shard() result for an address no endpoint has ever claimed.
  static constexpr std::uint32_t kUnowned = 0xffffffffu;

  /// Returns the dense id for `name`, creating an unowned entry on first
  /// sight.
  AddressId intern(const std::string& name);

  /// The string behind an interned id (logs and tests).
  const std::string& name_of(AddressId address) const;

  /// The id behind a name, without interning; nullopt if never seen.
  std::optional<AddressId> lookup(const std::string& name) const;

  /// Records that `shard`'s bus hosts the endpoint behind `address`.
  /// Ownership survives detach (in-flight traffic still routes to the
  /// owner, which dead-letters it) and moves on a re-attach elsewhere.
  void claim(AddressId address, std::uint32_t shard);

  /// The shard hosting `address`, or kUnowned.  Lock-free.
  std::uint32_t owner_shard(AddressId address) const;

  /// Ids interned so far.  Acquire-ordered: an id below size() is safe to
  /// look up from any thread.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr std::size_t kChunkBits = 12;  // 4096 addresses per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 12;  // 16.7M

  struct Chunk {
    std::array<std::atomic<std::uint32_t>, kChunkSize> owners;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::deque<std::string> names_;  // stable references under growth
  std::array<std::unique_ptr<Chunk>, kMaxChunks> chunks_{};
  std::atomic<std::size_t> size_{0};
};

/// Fixed-capacity multi-producer single-consumer ring of RemoteEnvelopes
/// (Vyukov's bounded queue, restricted to one consumer).  push() is safe
/// from any shard worker mid-epoch; pop() is called by the epoch barrier's
/// completion step while every producer is quiescent.
class ShardMailbox {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit ShardMailbox(std::size_t capacity);
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  /// False if the ring is full (the caller accounts the message dropped).
  bool push(RemoteEnvelope&& envelope);

  /// Moves the oldest envelope out; false when empty.  Single consumer.
  bool pop(RemoteEnvelope& out);

  /// Moves every staged envelope into `out` (appending) and returns how
  /// many were drained.  Single consumer; reads the producer cursor once,
  /// so it drains exactly the traffic staged before the call — the shape
  /// the epoch barrier wants, where producers are quiescent and the whole
  /// epoch's inbox is consumed as one batch.
  std::size_t drain(std::vector<RemoteEnvelope>& out);

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> sequence{0};
    RemoteEnvelope value;
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producers claim here
  alignas(64) std::uint64_t head_ = 0;              // consumer cursor
};

/// Declared communication structure between shards.  The epoch driver
/// derives its causal window bound from this: kAllToAll lets any shard
/// message any other, so the window is bounded by the cross-shard latency
/// floor; kIsolated declares that no cross-shard traffic exists — the
/// identity-partitioned deployment, where every client trades on its
/// account's home shard — letting the driver run shards to quiescence
/// independently between barriers.  The declaration is enforced, not
/// trusted: under kIsolated a cross-shard send throws at the sender,
/// deterministically, instead of silently breaking the window math.
enum class ShardTopology : std::uint8_t { kAllToAll, kIsolated };

/// The shared substrate of a sharded exchange: one address space and, for
/// a kAllToAll fabric, one inbound mailbox per shard.
class Fabric {
 public:
  /// Only kAllToAll can carry cross-shard traffic, so only it allocates
  /// the inbound rings (`mailbox_capacity` slots each).  The declaration
  /// is fixed for the fabric's lifetime: workers read it unsynchronized.
  Fabric(std::size_t shards, ShardTopology topology,
         std::size_t mailbox_capacity = 0);

  AddressSpace& addresses() { return addresses_; }
  const AddressSpace& addresses() const { return addresses_; }

  /// Stages `envelope` for `dest_shard`; false if its mailbox is full.
  /// kAllToAll only: an isolated fabric's buses throw before forwarding.
  bool forward(std::uint32_t dest_shard, RemoteEnvelope&& envelope) {
    return mailboxes_[dest_shard]->push(std::move(envelope));
  }

  /// Appends `shard`'s staged inbound traffic to `out`; returns the count
  /// (always 0 when isolated).
  std::size_t drain(std::size_t shard, std::vector<RemoteEnvelope>& out) {
    return mailboxes_.empty() ? 0 : mailboxes_[shard]->drain(out);
  }

  ShardTopology topology() const { return topology_; }

 private:
  AddressSpace addresses_;
  std::vector<std::unique_ptr<ShardMailbox>> mailboxes_;
  ShardTopology topology_;
};

}  // namespace fnda
