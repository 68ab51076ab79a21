#include "market/clock.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace fnda {

void EventQueue::schedule_timer(SimTime at, const Timer& timer) {
  Entry entry;
  entry.at = std::max(at, now_);
  entry.key = timer.word;
  entry.slot = static_cast<std::uint32_t>(timer.target.value());
  entry.kind = timer.kind;
  push(entry);
}

SimTime EventQueue::schedule_delivery(SimTime at, std::uint32_t slot,
                                      std::uint64_t key) {
  Entry entry;
  entry.at = std::max(at, now_);
  entry.key = key;
  entry.slot = slot;
  entry.is_delivery = true;
  push(entry);
  return entry.at;
}

void EventQueue::push(const Entry& entry) {
  const std::int64_t bucket = bucket_of(entry.at);
  ++size_;
  if (bucket > cursor_) {
    if (bucket < horizon()) {
      const auto slot_index = static_cast<std::size_t>(bucket) & kWheelMask;
      std::vector<Entry>& slot = wheel_[slot_index];
      if (slot.capacity() == 0) take_spare(slot);
      slot.push_back(entry);
      mark_occupied(slot_index);
      ++wheel_count_;
    } else {
      std::vector<Entry>& later = overflow_[bucket];
      if (later.capacity() == 0) take_spare(later);
      later.push_back(entry);
    }
    return;
  }
  const auto offset =
      static_cast<std::size_t>(entry.at.micros) & (kBucketWidth - 1);
  if (bucket == cursor_ && offset >= instant_offset_) {
    // The common reentrant case: an executing handler schedules into the
    // bucket being drained, at or after the drain position.  The target
    // list is one instant, and the new sequence number is the largest
    // yet, so a plain append preserves (at, sequence) order.
    instant_[offset].push_back(entry);
    instant_occupied_[offset >> 6] |= std::uint64_t{1} << (offset & 63);
    ++instant_pending_;
    return;
  }
  // Behind the drain position: only reachable while now_ lags the cursor
  // (after a partial run_until), so it stays ahead of everything already
  // executed.  Splice into the sorted early buffer.
  insert_early(entry);
}

void EventQueue::take_spare(std::vector<Entry>& bucket) {
  if (spare_buckets_.empty()) return;
  bucket = std::move(spare_buckets_.back());
  spare_buckets_.pop_back();
}

void EventQueue::insert_early(const Entry& entry) {
  // upper_bound keeps equal-time insertion stable: the new entry lands
  // after every pending entry at the same instant, which were pushed
  // earlier.
  const auto position = std::upper_bound(
      early_.begin() + static_cast<std::ptrdiff_t>(early_index_), early_.end(),
      entry.at,
      [](SimTime at, const Entry& other) { return at < other.at; });
  early_.insert(position, entry);
}

void EventQueue::mark_occupied(std::size_t slot_index) {
  occupied_[slot_index >> 6] |= std::uint64_t{1} << (slot_index & 63);
}

void EventQueue::clear_occupied(std::size_t slot_index) {
  occupied_[slot_index >> 6] &= ~(std::uint64_t{1} << (slot_index & 63));
}

std::size_t EventQueue::next_occupied_distance() const {
  // Circular scan of the occupancy bitmap starting at the cursor slot.
  // The wheel holds only buckets in (cursor_, cursor_ + kWheelSlots), so
  // slot order from the cursor equals absolute bucket order.
  const std::size_t start = static_cast<std::size_t>(cursor_) & kWheelMask;
  std::size_t word = start >> 6;
  const std::size_t start_bit = start & 63;
  std::uint64_t bits = occupied_[word] >> start_bit;
  if (bits != 0) {
    return static_cast<std::size_t>(std::countr_zero(bits));
  }
  std::size_t scanned = 64 - start_bit;
  while (scanned < kWheelSlots) {
    word = (word + 1) & (kBitmapWords - 1);
    bits = occupied_[word];
    if (bits != 0) {
      return scanned + static_cast<std::size_t>(std::countr_zero(bits));
    }
    scanned += 64;
  }
  return kWheelSlots;  // wheel empty
}

void EventQueue::pull_overflow() {
  while (!overflow_.empty() && overflow_.begin()->first < horizon()) {
    auto node = overflow_.extract(overflow_.begin());
    const auto slot_index = static_cast<std::size_t>(node.key()) & kWheelMask;
    std::vector<Entry>& dest = wheel_[slot_index];
    wheel_count_ += node.mapped().size();
    if (dest.empty()) {
      dest = std::move(node.mapped());
    } else {
      // Unreachable: the cursor only advances over slots the occupancy
      // scan proved empty, and two distinct buckets inside the 1024-slot
      // horizon can never alias to one slot, so a pulled bucket's slot is
      // always vacant.  Appending is the conservative fallback.
      dest.insert(dest.end(), std::make_move_iterator(node.mapped().begin()),
                  std::make_move_iterator(node.mapped().end()));
    }
    mark_occupied(slot_index);
  }
}

bool EventQueue::ensure_ready() {
  if (early_pending() || instant_pending_ > 0) return true;
  if (early_index_ > 0) {
    early_.clear();
    early_index_ = 0;
  }
  if (size_ == 0) return false;
  if (wheel_count_ == 0) {
    // Nothing on the wheel: jump straight to the first overflow epoch.
    cursor_ = overflow_.begin()->first;
    pull_overflow();
  }
  const std::size_t distance = next_occupied_distance();
  if (distance > 0) {
    cursor_ += static_cast<std::int64_t>(distance);
    pull_overflow();  // the horizon advanced with the cursor
  }
  // Distribute the bucket into its per-offset instant lists.  The bucket
  // vector is in push (= sequence) order and the distribution is stable,
  // so each list ends up in exact (at, sequence) order without sorting.
  const auto slot_index = static_cast<std::size_t>(cursor_) & kWheelMask;
  std::vector<Entry>& bucket = wheel_[slot_index];
  clear_occupied(slot_index);
  wheel_count_ -= bucket.size();
  instant_pending_ = bucket.size();
  instant_offset_ = 0;
  instant_index_ = 0;
  for (const Entry& entry : bucket) {
    const auto offset =
        static_cast<std::size_t>(entry.at.micros) & (kBucketWidth - 1);
    instant_[offset].push_back(entry);
    instant_occupied_[offset >> 6] |= std::uint64_t{1} << (offset & 63);
  }
  bucket.clear();
  spare_buckets_.push_back(std::move(bucket));
  return true;
}

void EventQueue::seek_instant() {
  std::size_t word = instant_offset_ >> 6;
  const std::uint64_t bits = instant_occupied_[word] >> (instant_offset_ & 63);
  if (bits != 0) {
    instant_offset_ += static_cast<std::size_t>(std::countr_zero(bits));
    return;
  }
  for (++word; word < instant_occupied_.size(); ++word) {
    if (instant_occupied_[word] != 0) {
      instant_offset_ =
          (word << 6) +
          static_cast<std::size_t>(std::countr_zero(instant_occupied_[word]));
      return;
    }
  }
  instant_offset_ = kBucketWidth;  // nothing left in this bucket
}

SimTime EventQueue::head_at() {
  if (early_pending()) return early_[early_index_].at;
  seek_instant();
  return instant_[instant_offset_][instant_index_].at;
}

void EventQueue::execute_one() {
  // Copy the entry out: executing it may send or schedule, which can
  // grow the list it came from and invalidate references into it.
  Entry entry;
  if (early_pending()) {
    entry = early_[early_index_++];
  } else {
    seek_instant();
    std::vector<Entry>& list = instant_[instant_offset_];
    entry = list[instant_index_++];
    if (instant_index_ >= list.size()) {
      list.clear();
      instant_occupied_[instant_offset_ >> 6] &=
          ~(std::uint64_t{1} << (instant_offset_ & 63));
      ++instant_offset_;
      instant_index_ = 0;
    }
    --instant_pending_;
  }
  --size_;
  now_ = entry.at;
  if (sink_ == nullptr) return;
  if (entry.is_delivery) {
    const Delivery single{entry.key, entry.slot};
    sink_->deliver_run(now_, &single, 1);
  } else {
    sink_->fire(Timer{entry.kind, AddressId{entry.slot}, entry.key});
  }
}

bool EventQueue::step() {
  if (!ensure_ready()) return false;
  execute_one();
  return true;
}

std::size_t EventQueue::drain_ready(std::size_t budget, SimTime until) {
  std::size_t executed = 0;
  while (executed < budget) {
    if (early_pending()) {
      if (early_[early_index_].at > until) break;
      execute_one();
      ++executed;
      continue;
    }
    if (instant_pending_ == 0) break;
    seek_instant();
    std::vector<Entry>& list = instant_[instant_offset_];
    const Entry& head = list[instant_index_];
    // Every entry in one instant list shares a timestamp, so one bound
    // check covers the whole list.
    if (head.at > until) break;
    if (!head.is_delivery || sink_ == nullptr) {
      execute_one();
      ++executed;
      continue;
    }
    // Hand the sink the run of deliveries at this instant; the run is
    // contiguous in the total order, so the receivers observe exactly
    // the sequence they would have seen message by message.
    const SimTime at = head.at;
    std::size_t next = instant_index_;
    const std::size_t limit =
        std::min(list.size(), instant_index_ + (budget - executed));
    // Sized once up front so the copy loop is branch-free on capacity.
    if (batch_scratch_.size() < limit - instant_index_) {
      batch_scratch_.resize(limit - instant_index_);
    }
    Delivery* out = batch_scratch_.data();
    while (next < limit) {
      const Entry& candidate = list[next];
      if (!candidate.is_delivery) break;
      *out++ = Delivery{candidate.key, candidate.slot};
      ++next;
    }
    const std::size_t n = next - instant_index_;
    instant_index_ = next;
    instant_pending_ -= n;
    size_ -= n;
    executed += n;
    now_ = at;
    sink_->deliver_run(at, batch_scratch_.data(), n);  // n <= scratch size
    // Clean up after the sink call: handlers may have appended to the
    // list (same-instant sends), in which case it is not exhausted.
    if (instant_index_ >= list.size()) {
      list.clear();
      instant_occupied_[instant_offset_ >> 6] &=
          ~(std::uint64_t{1} << (instant_offset_ & 63));
      ++instant_offset_;
      instant_index_ = 0;
    }
  }
  return executed;
}

std::size_t EventQueue::run(std::size_t max_events) {
  constexpr SimTime kNoBound{std::numeric_limits<std::int64_t>::max()};
  std::size_t executed = 0;
  while (executed < max_events && ensure_ready()) {
    executed += drain_ready(max_events - executed, kNoBound);
  }
  return executed;
}

std::size_t EventQueue::run_until(SimTime until, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && ensure_ready() && head_at() <= until) {
    executed += drain_ready(max_events - executed, until);
  }
  return executed;
}

std::optional<SimTime> EventQueue::next_time() {
  if (!ensure_ready()) return std::nullopt;
  return head_at();
}

}  // namespace fnda
