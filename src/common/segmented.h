// Append-only segmented column.
//
// A doubling std::vector holds up to twice its live content, and every
// doubling copies the whole table inside whatever step happened to cross
// the boundary.  The per-session tables that only ever grow (the audit
// log, identity owners, escrow deposits, the trader threads) instead live
// in fixed power-of-two blocks: growing allocates one block and copies
// nothing, element addresses stay stable, and the memory held is the live
// content plus at most one partly filled block.  Indexing is a shift and a
// mask.
//
// The block size is a compile-time constant: about 64 KiB of elements,
// rounded down to a power-of-two element count.  Blocks are
// value-initialised when allocated, so elements past size() read as T{}
// and resize() only has to allocate blocks.
#pragma once

#include <bit>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace fnda {

template <typename T>
class SegmentedColumn {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
  static constexpr std::size_t kBlockSize = std::bit_floor(
      sizeof(T) >= kBlockBytes ? std::size_t{1} : kBlockBytes / sizeof(T));

  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const SegmentedColumn* column, std::size_t index)
        : column_(column), index_(index) {}

    reference operator*() const { return (*column_)[index_]; }
    pointer operator->() const { return &(*column_)[index_]; }
    reference operator[](difference_type n) const { return *(*this + n); }

    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    const_iterator& operator--() {
      --index_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator before = *this;
      --index_;
      return before;
    }
    const_iterator& operator+=(difference_type n) {
      index_ += static_cast<std::size_t>(n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      index_ -= static_cast<std::size_t>(n);
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }
    friend std::strong_ordering operator<=>(const const_iterator& a,
                                            const const_iterator& b) {
      return a.index_ <=> b.index_;
    }

   private:
    const SegmentedColumn* column_ = nullptr;
    std::size_t index_ = 0;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Largest size the column may be asked to grow to.
  static constexpr std::size_t max_size() {
    return static_cast<std::size_t>(PTRDIFF_MAX) / sizeof(T);
  }

  const T& operator[](std::size_t index) const {
    assert(index < size_);
    return blocks_[index >> kBlockBits][index & kBlockMask];
  }
  T& operator[](std::size_t index) {
    assert(index < size_);
    return blocks_[index >> kBlockBits][index & kBlockMask];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  void push_back(const T& value) {
    if ((size_ >> kBlockBits) == blocks_.size()) add_block();
    blocks_[size_ >> kBlockBits][size_ & kBlockMask] = value;
    ++size_;
  }

  /// Grows to `count` elements; the new ones are value-initialised.
  /// Never shrinks: `count` must be at least size().
  void resize(std::size_t count) {
    assert(count >= size_);
    while (blocks_.size() < (count + kBlockMask) >> kBlockBits) add_block();
    if (count > size_) size_ = count;
  }

 private:
  static constexpr int kBlockBits = std::countr_zero(kBlockSize);
  static constexpr std::size_t kBlockMask = kBlockSize - 1;

  void add_block() { blocks_.push_back(std::make_unique<T[]>(kBlockSize)); }

  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t size_ = 0;
};

}  // namespace fnda
