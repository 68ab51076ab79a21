// Order book and the paper's order statistics.
//
// An OrderBook collects raw single-unit declarations.  A SortedBook is the
// immutable, rank-ordered view every protocol actually consumes:
//
//   b(1) >= b(2) >= ... >= b(m)      (buyers, highest first)
//   s(1) <= s(2) <= ... <= s(n)      (sellers, lowest first)
//
// with the paper's sentinels b(m+1) = lowest possible valuation and
// s(n+1) = highest possible valuation, and random tie-breaking among equal
// values (footnote 5 of the paper).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "common/rng.h"
#include "core/bid.h"

namespace fnda {

/// Inclusive bounds of the valuation domain.  The PMD trading-price
/// candidate p0 averages the sentinels when the book is short, so bounds
/// must be finite; defaults match the paper's examples ("e.g. 0" and
/// "e.g. one billion dollars").
struct ValueDomain {
  Money lowest = Money::from_units(0);
  Money highest = Money::from_units(1'000'000'000);
};

/// Mutable collection of declarations for one clearing round.
class OrderBook {
 public:
  explicit OrderBook(ValueDomain domain = {});

  /// Records a declaration and returns its book-unique bid ID.
  /// Values outside the domain are clamped-free: they are rejected with
  /// std::invalid_argument, since a declaration the domain cannot price is
  /// a caller bug, not market data.
  BidId add(Side side, IdentityId identity, Money value);
  BidId add_buyer(IdentityId identity, Money value) {
    return add(Side::kBuyer, identity, value);
  }
  BidId add_seller(IdentityId identity, Money value) {
    return add(Side::kSeller, identity, value);
  }

  /// Empties the book for a new round over `domain`, keeping the lanes'
  /// capacity; equivalent to assigning a freshly constructed OrderBook
  /// (bid ids restart at 0).
  void reset(ValueDomain domain);

  const std::vector<BidEntry>& buyers() const { return buyers_; }
  const std::vector<BidEntry>& sellers() const { return sellers_; }
  const ValueDomain& domain() const { return domain_; }

  std::size_t buyer_count() const { return buyers_.size(); }
  std::size_t seller_count() const { return sellers_.size(); }

 private:
  ValueDomain domain_;
  std::vector<BidEntry> buyers_;
  std::vector<BidEntry> sellers_;
  std::uint64_t next_bid_ = 0;
};

/// Immutable rank-ordered view of an OrderBook.
///
/// Accessors use the paper's 1-based rank convention, including sentinel
/// ranks m+1 / n+1, so protocol code reads like the paper's definitions.
class SortedBook {
 public:
  /// An empty ranking over the default domain; populate with `rebuild`.
  /// Exists so hot loops can keep one SortedBook per thread and recycle
  /// its buffers across instances.
  SortedBook() = default;

  /// Sorts with random tie-breaking drawn from `rng`.  The same book and
  /// rng state always produce the same ranking (deterministic replay).
  SortedBook(const OrderBook& book, Rng& rng);

  /// Re-ranks `book` in place, reusing this object's buffers (no
  /// allocation once capacity has grown to the workload's book size,
  /// for lanes of up to 64 entries, which the stable bucket_rank kernel
  /// of common/bucket_rank.h ranks on the stack; longer lanes rank
  /// through std::stable_sort and its temporary buffer).  Equivalent to
  /// assigning a freshly constructed SortedBook.
  void rebuild(const OrderBook& book, Rng& rng);

  /// Ranks a book written in place, for callers whose tie stream is
  /// private: `tie_rng` serves this ranking alone and is dropped after it.
  /// `write(buyers, sellers)` receives the lanes sized `buyers` and
  /// `sellers` and writes the declarations in book order (the order an
  /// OrderBook holds them in); values outside `domain` throw as
  /// OrderBook::add does.  Footnote 5 matters only between equal values: a
  /// lane without them has one stable ranking, whatever the shuffle.  So
  /// unless `expect_ties`, the lanes are first ranked without the shuffle,
  /// and only if a ranked lane then holds equal values does `write` run
  /// again and the lanes get shuffled from the untouched `tie_rng` and
  /// ranked, as `rebuild` ranks that book.  With `expect_ties` they are
  /// shuffled and ranked at once, which spares a tie-dense stream the
  /// wasted first ranking.  Either way the ranking equals `rebuild`'s; only
  /// `tie_rng`'s final state may differ, which is why it must be private.
  /// Callers that go on drawing from their rng use `rebuild`.  Returns
  /// whether a ranked lane holds equal values.
  template <typename Write>
  bool rank_private(const ValueDomain& domain, std::size_t buyers,
                    std::size_t sellers, Rng& tie_rng, bool expect_ties,
                    const Write& write) {
    domain_ = domain;
    buyers_.resize(buyers);
    sellers_.resize(sellers);
    write(std::span<BidEntry>(buyers_), std::span<BidEntry>(sellers_));
    check_values();
    if (!expect_ties) {
      rank_lanes();
      if (!has_equal_values()) return false;
      write(std::span<BidEntry>(buyers_), std::span<BidEntry>(sellers_));
    }
    shuffle_and_rank(tie_rng);
    return has_equal_values();
  }

  /// Adopts vectors that are ALREADY ranked (buyers descending, sellers
  /// ascending, ties in the desired order).  The caller vouches for the
  /// ordering; debug builds assert it.  Used by callers that maintain a
  /// ranked view incrementally instead of re-sorting from scratch.
  static SortedBook from_ranked(const ValueDomain& domain,
                                std::vector<BidEntry> buyers_descending,
                                std::vector<BidEntry> sellers_ascending);

  /// `from_ranked` into this object's existing buffers (no allocation
  /// once capacity has grown to the workload's book size).  Same
  /// caller-vouches-for-the-ranking contract, asserted in debug builds.
  void assign_ranked(const ValueDomain& domain,
                     const std::vector<BidEntry>& buyers_descending,
                     const std::vector<BidEntry>& sellers_ascending);

  /// Incremental-maintenance escape hatch: inserts `entry` at 0-based
  /// `index` in the chosen lane.  The caller vouches that the position
  /// keeps the lane ranked (buyers descending, sellers ascending) — e.g.
  /// a uniformly random slot within the entry's equal-value run, which is
  /// how the manipulation-search engine patches a shared residual ranking
  /// per candidate instead of re-copying both lanes.  Debug builds assert
  /// the neighbours.
  void insert_ranked(Side side, const BidEntry& entry, std::size_t index);

  /// Capacity for `buyers` / `sellers` entries per lane, so later
  /// `insert_ranked` calls up to that size never reallocate.
  void reserve(std::size_t buyers, std::size_t sellers);

  /// Removes the entry at 0-based `index` from the chosen lane, exactly
  /// undoing a matching `insert_ranked` (entries are PODs, so the lane is
  /// restored bit-for-bit).
  void erase_ranked(Side side, std::size_t index);

  std::size_t buyer_count() const { return buyers_.size(); }   // m
  std::size_t seller_count() const { return sellers_.size(); }  // n

  /// b(rank) for rank in [1, m+1]; b(m+1) is the low sentinel.
  Money buyer_value(std::size_t rank) const;
  /// s(rank) for rank in [1, n+1]; s(n+1) is the high sentinel.
  Money seller_value(std::size_t rank) const;

  /// The declaration at a given rank (1-based, no sentinel rank).
  const BidEntry& buyer(std::size_t rank) const;
  const BidEntry& seller(std::size_t rank) const;

  const std::vector<BidEntry>& buyers() const { return buyers_; }
  const std::vector<BidEntry>& sellers() const { return sellers_; }
  const ValueDomain& domain() const { return domain_; }

  /// Number of buyers with value >= r (the paper's `i`).
  std::size_t buyers_at_or_above(Money r) const;
  /// Number of sellers with value <= r (the paper's `j`).
  std::size_t sellers_at_or_below(Money r) const;

  /// The paper's k: the largest rank with b(k) >= s(k); 0 when even the
  /// best pair cannot trade.  This is the Pareto-efficient trade count.
  /// O(log min(m, n)): b(t) - s(t) never increases along ranked lanes.
  std::size_t efficient_trade_count() const;

 private:
  /// Throws as OrderBook does on an invalid domain or a value outside it.
  void check_values() const;
  /// Ranks both lanes stably by value, as they stand.
  void rank_lanes();
  /// `rebuild`'s tie-break: shuffles both lanes, then `rank_lanes`.
  void shuffle_and_rank(Rng& rng);
  /// Whether a ranked lane holds equal values (its ranking needs
  /// footnote 5).
  bool has_equal_values() const;

  ValueDomain domain_;
  std::vector<BidEntry> buyers_;   // descending by value
  std::vector<BidEntry> sellers_;  // ascending by value
};

}  // namespace fnda
