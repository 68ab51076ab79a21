// Round-lifetime bump allocator.
//
// The market hot path allocates the same short-lived scratch every round:
// the open round's submitted-bid table and outcome-validation lookup
// lanes.  Each is dead by the next round boundary, so a bump arena with
// an epoch reset replaces that
// round-frequency heap traffic with pointer arithmetic: allocate() bumps
// an offset inside the current block, reset() retires every allocation at
// once and keeps the memory for the next round.
//
// Steady state allocates nothing: when a reset finds the arena spilled
// into more than one block, the blocks are coalesced into a single block
// sized for the whole epoch, so after warm-up every round runs inside one
// contiguous block.  Stats expose the high-water mark (peak live bytes)
// so telemetry can pin the per-round footprint.
//
// Not thread-safe by design — each arena is owned by one shard (or the
// single-threaded barrier completion step), matching the exchange's
// one-world-per-thread layout.  Only trivially-destructible types may be
// placed in the arena: reset() never runs destructors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace fnda {

class MonotonicArena {
 public:
  struct Stats {
    std::size_t high_water = 0;  ///< peak live bytes across all resets
    std::size_t capacity = 0;    ///< bytes currently reserved in blocks
    std::uint64_t resets = 0;
    std::uint64_t block_allocations = 0;  ///< upstream allocations ever made
  };

  explicit MonotonicArena(std::size_t initial_capacity = 0) {
    if (initial_capacity > 0) add_block(initial_capacity);
  }

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Never fails short of upstream allocation failure; spilling past the
  /// current block chains a new, geometrically larger one.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t offset = (offset_ + (align - 1)) & ~(align - 1);
    if (block_ >= blocks_.size() || offset + bytes > blocks_[block_].size) {
      spill(bytes + align);
      offset = (offset_ + (align - 1)) & ~(align - 1);
    }
    std::byte* data = blocks_[block_].data.get() + offset;
    offset_ = offset + bytes;
    used_ = block_base_ + offset_;
    if (used_ > stats_.high_water) stats_.high_water = used_;
    return data;
  }

  /// Typed span of `count` default-constructible, trivially-destructible
  /// elements.  The storage is NOT zeroed; callers initialise it.
  template <typename T>
  std::span<T> make_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without running destructors");
    if (count == 0) return {};
    auto* data = static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (data + i) T{};
    return {data, count};
  }

  /// Retires every allocation.  Memory is retained; if the last epoch
  /// spilled across blocks they are coalesced into one, so a warmed-up
  /// arena serves each epoch from a single contiguous block.
  void reset() {
    ++stats_.resets;
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& block : blocks_) total += block.size;
      blocks_.clear();
      stats_.capacity = 0;
      add_block(total);
    }
    block_ = 0;
    block_base_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  /// Live bytes since the last reset.
  std::size_t used() const { return used_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static constexpr std::size_t kMinBlock = 1024;

  void add_block(std::size_t size) {
    if (size < kMinBlock) size = kMinBlock;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    stats_.capacity += size;
    ++stats_.block_allocations;
  }

  /// Moves the cursor to a block with at least `need` free bytes,
  /// appending a geometrically larger one if none exists.
  void spill(std::size_t need) {
    if (block_ < blocks_.size()) {
      block_base_ += blocks_[block_].size;
      ++block_;
    }
    while (block_ < blocks_.size() && blocks_[block_].size < need) {
      block_base_ += blocks_[block_].size;
      ++block_;
    }
    if (block_ >= blocks_.size()) {
      const std::size_t grown = stats_.capacity * 2;
      add_block(grown > need ? grown : need);
      block_ = blocks_.size() - 1;
    }
    offset_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t block_ = 0;       ///< index of the block the cursor is in
  std::size_t block_base_ = 0;  ///< bytes in blocks before the cursor's
  std::size_t offset_ = 0;      ///< bump offset inside the cursor block
  std::size_t used_ = 0;
  Stats stats_;
};

}  // namespace fnda
