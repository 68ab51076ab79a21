#include "market/fabric.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace fnda {

AddressId AddressSpace::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) {
    const std::size_t index = names_.size();
    if (index >= kMaxChunks * kChunkSize) {
      ids_.erase(it);
      throw std::length_error("AddressSpace: address table full");
    }
    names_.push_back(name);
    const std::size_t chunk = index >> kChunkBits;
    if (chunks_[chunk] == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      for (auto& owner : fresh->owners) {
        owner.store(kUnowned, std::memory_order_relaxed);
      }
      chunks_[chunk] = std::move(fresh);
    }
    // Publish the new size after the slot's owner word is initialised so
    // a racing owner_shard(id < size()) never reads garbage.
    size_.store(names_.size(), std::memory_order_release);
  }
  return AddressId{it->second};
}

const std::string& AddressSpace::name_of(AddressId address) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_.at(address.value());
}

std::optional<AddressId> AddressSpace::lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return AddressId{it->second};
}

void AddressSpace::claim(AddressId address, std::uint32_t shard) {
  if (address.value() >= size()) {
    throw std::out_of_range("AddressSpace::claim: unknown address");
  }
  const std::size_t index = address.value();
  chunks_[index >> kChunkBits]->owners[index & kChunkMask].store(
      shard, std::memory_order_release);
}

std::uint32_t AddressSpace::owner_shard(AddressId address) const {
  const std::size_t index = address.value();
  if (index >= size()) return kUnowned;
  return chunks_[index >> kChunkBits]->owners[index & kChunkMask].load(
      std::memory_order_acquire);
}

ShardMailbox::ShardMailbox(std::size_t capacity)
    : slots_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)) {
  mask_ = slots_.size() - 1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

bool ShardMailbox::push(RemoteEnvelope&& envelope) {
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & mask_];
    const std::uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::int64_t>(sequence) - static_cast<std::int64_t>(pos);
    if (diff == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.value = std::move(envelope);
        slot.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // a full lap behind: ring is full
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
}

bool ShardMailbox::pop(RemoteEnvelope& out) {
  Slot& slot = slots_[head_ & mask_];
  const std::uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
  if (static_cast<std::int64_t>(sequence) -
          static_cast<std::int64_t>(head_ + 1) <
      0) {
    return false;  // producer has not finished (or started) this slot
  }
  out = std::move(slot.value);
  slot.value.payload = Message{};  // drop any heap payload promptly
  slot.sequence.store(head_ + mask_ + 1, std::memory_order_release);
  ++head_;
  return true;
}

std::size_t ShardMailbox::drain(std::vector<RemoteEnvelope>& out) {
  // One producer-cursor read bounds the batch; each slot still publishes
  // through its own sequence word, so a producer mid-push (impossible at
  // the epoch barrier, but legal for the type) just ends the batch early.
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  out.reserve(out.size() + static_cast<std::size_t>(tail - head_));
  std::size_t drained = 0;
  while (head_ != tail) {
    Slot& slot = slots_[head_ & mask_];
    const std::uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(sequence) -
            static_cast<std::int64_t>(head_ + 1) <
        0) {
      break;
    }
    out.push_back(std::move(slot.value));
    slot.value.payload = Message{};  // drop any heap payload promptly
    slot.sequence.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    ++drained;
  }
  return drained;
}

Fabric::Fabric(std::size_t shards, ShardTopology topology,
               std::size_t mailbox_capacity)
    : topology_(topology) {
  if (topology_ == ShardTopology::kIsolated) return;
  mailboxes_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    mailboxes_.push_back(std::make_unique<ShardMailbox>(mailbox_capacity));
  }
}

}  // namespace fnda
