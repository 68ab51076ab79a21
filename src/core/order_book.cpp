#include "core/order_book.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bucket_rank.h"

namespace fnda {

namespace {

void check_domain(const ValueDomain& domain) {
  if (!(domain.lowest < domain.highest)) {
    throw std::invalid_argument("OrderBook: domain must satisfy lowest < highest");
  }
}

void check_value(const ValueDomain& domain, Money value) {
  if (value < domain.lowest || value > domain.highest) {
    throw std::invalid_argument("OrderBook::add: value outside the domain");
  }
}

/// Stable rank of `lane` in `kOrder` by value.  Lanes of up to
/// kBucketRankMax entries (every Table 1 book) go through the
/// allocation-free bucket_rank kernel; longer lanes (Figure 1's n = 500
/// books) keep std::stable_sort and its temporary buffer.  Both are
/// stable, so equal values keep their order either way.
template <RankOrder kOrder>
void stable_rank(std::vector<BidEntry>& lane) {
  if (lane.size() <= kBucketRankMax) {
    bucket_rank<kOrder>(std::span<BidEntry>(lane), [](const BidEntry& entry) {
      return entry.value.micros();
    });
    return;
  }
  std::stable_sort(lane.begin(), lane.end(),
                   [](const BidEntry& a, const BidEntry& b) {
                     return kOrder == RankOrder::kAscending ? a.value < b.value
                                                            : a.value > b.value;
                   });
}

}  // namespace

OrderBook::OrderBook(ValueDomain domain) : domain_(domain) {
  check_domain(domain_);
}

void OrderBook::reset(ValueDomain domain) {
  check_domain(domain);
  domain_ = domain;
  buyers_.clear();
  sellers_.clear();
  next_bid_ = 0;
}

BidId OrderBook::add(Side side, IdentityId identity, Money value) {
  check_value(domain_, value);
  const BidId id{next_bid_++};
  auto& lane = side == Side::kBuyer ? buyers_ : sellers_;
  lane.push_back(BidEntry{id, identity, value});
  return id;
}

SortedBook::SortedBook(const OrderBook& book, Rng& rng) {
  rebuild(book, rng);
}

void SortedBook::rebuild(const OrderBook& book, Rng& rng) {
  domain_ = book.domain();
  buyers_.assign(book.buyers().begin(), book.buyers().end());
  sellers_.assign(book.sellers().begin(), book.sellers().end());
  shuffle_and_rank(rng);
}

void SortedBook::shuffle_and_rank(Rng& rng) {
  // Random tie-breaking (paper footnote 5): shuffle first, then rank
  // stably by value only.  Equal-valued bids end up in the shuffled order.
  rng.shuffle(buyers_.begin(), buyers_.end());
  rng.shuffle(sellers_.begin(), sellers_.end());
  rank_lanes();
}

void SortedBook::check_values() const {
  check_domain(domain_);
  for (const BidEntry& entry : buyers_) check_value(domain_, entry.value);
  for (const BidEntry& entry : sellers_) check_value(domain_, entry.value);
}

void SortedBook::rank_lanes() {
  stable_rank<RankOrder::kDescending>(buyers_);
  stable_rank<RankOrder::kAscending>(sellers_);
}

bool SortedBook::has_equal_values() const {
  auto equal_value = [](const BidEntry& a, const BidEntry& b) {
    return a.value == b.value;
  };
  return std::adjacent_find(buyers_.begin(), buyers_.end(), equal_value) !=
             buyers_.end() ||
         std::adjacent_find(sellers_.begin(), sellers_.end(), equal_value) !=
             sellers_.end();
}

namespace {

[[maybe_unused]] bool ranked_invariant(const std::vector<BidEntry>& buyers,
                                       const std::vector<BidEntry>& sellers) {
  return std::is_sorted(buyers.begin(), buyers.end(),
                        [](const BidEntry& a, const BidEntry& b) {
                          return a.value > b.value;
                        }) &&
         std::is_sorted(sellers.begin(), sellers.end(),
                        [](const BidEntry& a, const BidEntry& b) {
                          return a.value < b.value;
                        });
}

}  // namespace

SortedBook SortedBook::from_ranked(const ValueDomain& domain,
                                   std::vector<BidEntry> buyers_descending,
                                   std::vector<BidEntry> sellers_ascending) {
  assert(ranked_invariant(buyers_descending, sellers_ascending));
  SortedBook book;
  book.domain_ = domain;
  book.buyers_ = std::move(buyers_descending);
  book.sellers_ = std::move(sellers_ascending);
  return book;
}

void SortedBook::assign_ranked(const ValueDomain& domain,
                               const std::vector<BidEntry>& buyers_descending,
                               const std::vector<BidEntry>& sellers_ascending) {
  assert(ranked_invariant(buyers_descending, sellers_ascending));
  domain_ = domain;
  buyers_.assign(buyers_descending.begin(), buyers_descending.end());
  sellers_.assign(sellers_ascending.begin(), sellers_ascending.end());
}

void SortedBook::insert_ranked(Side side, const BidEntry& entry,
                               std::size_t index) {
  auto& lane = side == Side::kBuyer ? buyers_ : sellers_;
  if (index > lane.size()) {
    throw std::out_of_range("SortedBook::insert_ranked: index out of range");
  }
  // The neighbours must tolerate the new value in ranked order.
  assert(index == 0 || (side == Side::kBuyer
                            ? !(lane[index - 1].value < entry.value)
                            : !(lane[index - 1].value > entry.value)));
  assert(index == lane.size() || (side == Side::kBuyer
                                      ? !(entry.value < lane[index].value)
                                      : !(entry.value > lane[index].value)));
  lane.insert(lane.begin() + static_cast<std::ptrdiff_t>(index), entry);
}

void SortedBook::reserve(std::size_t buyers, std::size_t sellers) {
  buyers_.reserve(buyers);
  sellers_.reserve(sellers);
}

void SortedBook::erase_ranked(Side side, std::size_t index) {
  auto& lane = side == Side::kBuyer ? buyers_ : sellers_;
  if (index >= lane.size()) {
    throw std::out_of_range("SortedBook::erase_ranked: index out of range");
  }
  lane.erase(lane.begin() + static_cast<std::ptrdiff_t>(index));
}

Money SortedBook::buyer_value(std::size_t rank) const {
  if (rank == 0 || rank > buyers_.size() + 1) {
    throw std::out_of_range("SortedBook::buyer_value: rank out of range");
  }
  if (rank == buyers_.size() + 1) return domain_.lowest;  // b(m+1) sentinel
  return buyers_[rank - 1].value;
}

Money SortedBook::seller_value(std::size_t rank) const {
  if (rank == 0 || rank > sellers_.size() + 1) {
    throw std::out_of_range("SortedBook::seller_value: rank out of range");
  }
  if (rank == sellers_.size() + 1) return domain_.highest;  // s(n+1) sentinel
  return sellers_[rank - 1].value;
}

const BidEntry& SortedBook::buyer(std::size_t rank) const {
  if (rank == 0 || rank > buyers_.size()) {
    throw std::out_of_range("SortedBook::buyer: rank out of range");
  }
  return buyers_[rank - 1];
}

const BidEntry& SortedBook::seller(std::size_t rank) const {
  if (rank == 0 || rank > sellers_.size()) {
    throw std::out_of_range("SortedBook::seller: rank out of range");
  }
  return sellers_[rank - 1];
}

std::size_t SortedBook::buyers_at_or_above(Money r) const {
  // buyers_ is descending; find the first strictly below r.
  auto it = std::lower_bound(buyers_.begin(), buyers_.end(), r,
                             [](const BidEntry& e, Money v) {
                               return e.value >= v;
                             });
  return static_cast<std::size_t>(it - buyers_.begin());
}

std::size_t SortedBook::sellers_at_or_below(Money r) const {
  auto it = std::lower_bound(sellers_.begin(), sellers_.end(), r,
                             [](const BidEntry& e, Money v) {
                               return e.value <= v;
                             });
  return static_cast<std::size_t>(it - sellers_.begin());
}

std::size_t SortedBook::efficient_trade_count() const {
  // Buyers descend and sellers ascend, so b(t) >= s(t) holds on a prefix
  // of the ranks: k is its partition point.
  std::size_t lo = 0;
  std::size_t hi = std::min(buyers_.size(), sellers_.size());
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (buyers_[mid].value >= sellers_[mid].value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace fnda
