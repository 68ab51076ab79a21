#include "market/address_space.h"

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

}  // namespace fnda
