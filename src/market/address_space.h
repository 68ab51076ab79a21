// AddressSpace: the one name <-> AddressId table the shards of an
// exchange share.
//
// Each shard runs its own EventQueue + MessageBus + server world, owned by
// one worker thread at a time.  What the shards must agree on is naming:
// a global interning table plus the owning shard of every attached
// address.  Interning and claiming are mutex-guarded (set-up-time
// operations); the owner lookup every send makes is a lock-free
// chunked-atomic read.  Shards never exchange messages: a bus throws at
// the sender on any send to an address another shard owns.
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

#include "common/ids.h"

namespace fnda {

/// Global address book shared by every shard's MessageBus.
///
/// Ids are dense and stable for the space's lifetime.  intern()/claim()
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
  /// Ownership survives detach (other shards still may not send to it)
  /// and moves on a re-attach elsewhere.
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

}  // namespace fnda
