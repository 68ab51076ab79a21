#include "core/order_book.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

namespace fnda {
namespace {

OrderBook example1_book() {
  // Paper Example 1: buyers 9 > 8 > 7 > 4, sellers 2 < 3 < 4 < 5.
  OrderBook book;
  book.add_buyer(IdentityId{0}, Money::from_units(9));
  book.add_buyer(IdentityId{1}, Money::from_units(8));
  book.add_buyer(IdentityId{2}, Money::from_units(7));
  book.add_buyer(IdentityId{3}, Money::from_units(4));
  book.add_seller(IdentityId{10}, Money::from_units(2));
  book.add_seller(IdentityId{11}, Money::from_units(3));
  book.add_seller(IdentityId{12}, Money::from_units(4));
  book.add_seller(IdentityId{13}, Money::from_units(5));
  return book;
}

TEST(OrderBookTest, AddAssignsDistinctBidIds) {
  OrderBook book;
  const BidId a = book.add_buyer(IdentityId{0}, Money::from_units(1));
  const BidId b = book.add_seller(IdentityId{1}, Money::from_units(2));
  EXPECT_NE(a, b);
  EXPECT_EQ(book.buyer_count(), 1u);
  EXPECT_EQ(book.seller_count(), 1u);
}

TEST(OrderBookTest, RejectsValuesOutsideDomain) {
  OrderBook book;
  EXPECT_THROW(book.add_buyer(IdentityId{0}, Money::from_units(-1)),
               std::invalid_argument);
  EXPECT_THROW(
      book.add_seller(IdentityId{0}, Money::from_units(2'000'000'000)),
      std::invalid_argument);
}

TEST(OrderBookTest, RejectsDegenerateDomain) {
  EXPECT_THROW(OrderBook(ValueDomain{Money::from_units(5), Money::from_units(5)}),
               std::invalid_argument);
}

TEST(OrderBookTest, ResetMatchesAFreshBookAndKeepsCapacity) {
  OrderBook book = example1_book();
  const std::size_t capacity = book.buyers().capacity();
  const ValueDomain domain{Money::from_units(0), Money::from_units(100)};
  book.reset(domain);
  EXPECT_EQ(book.buyer_count(), 0u);
  EXPECT_EQ(book.seller_count(), 0u);
  EXPECT_EQ(book.buyers().capacity(), capacity);
  EXPECT_EQ(book.domain().highest, domain.highest);
  EXPECT_THROW(book.add_buyer(IdentityId{0}, Money::from_units(101)),
               std::invalid_argument);

  OrderBook fresh(domain);
  EXPECT_EQ(book.add_seller(IdentityId{4}, Money::from_units(3)),
            fresh.add_seller(IdentityId{4}, Money::from_units(3)));
  EXPECT_EQ(book.sellers(), fresh.sellers());
  EXPECT_THROW(
      book.reset(ValueDomain{Money::from_units(5), Money::from_units(5)}),
      std::invalid_argument);
}

TEST(SortedBookTest, RanksMatchPaperConvention) {
  OrderBook book = example1_book();
  Rng rng(1);
  const SortedBook sorted(book, rng);

  ASSERT_EQ(sorted.buyer_count(), 4u);
  ASSERT_EQ(sorted.seller_count(), 4u);
  // b(1) >= b(2) >= ... (highest first).
  EXPECT_EQ(sorted.buyer_value(1), Money::from_units(9));
  EXPECT_EQ(sorted.buyer_value(2), Money::from_units(8));
  EXPECT_EQ(sorted.buyer_value(3), Money::from_units(7));
  EXPECT_EQ(sorted.buyer_value(4), Money::from_units(4));
  // s(1) <= s(2) <= ... (lowest first).
  EXPECT_EQ(sorted.seller_value(1), Money::from_units(2));
  EXPECT_EQ(sorted.seller_value(2), Money::from_units(3));
  EXPECT_EQ(sorted.seller_value(3), Money::from_units(4));
  EXPECT_EQ(sorted.seller_value(4), Money::from_units(5));
}

TEST(SortedBookTest, SentinelRanks) {
  OrderBook book = example1_book();
  Rng rng(1);
  const SortedBook sorted(book, rng);
  EXPECT_EQ(sorted.buyer_value(5), book.domain().lowest);
  EXPECT_EQ(sorted.seller_value(5), book.domain().highest);
}

TEST(SortedBookTest, RankZeroAndBeyondSentinelThrow) {
  OrderBook book = example1_book();
  Rng rng(1);
  const SortedBook sorted(book, rng);
  EXPECT_THROW(sorted.buyer_value(0), std::out_of_range);
  EXPECT_THROW(sorted.buyer_value(6), std::out_of_range);
  EXPECT_THROW(sorted.seller_value(0), std::out_of_range);
  EXPECT_THROW(sorted.seller_value(6), std::out_of_range);
  EXPECT_THROW(sorted.buyer(5), std::out_of_range);
  EXPECT_THROW(sorted.seller(0), std::out_of_range);
}

TEST(SortedBookTest, EmptyBook) {
  OrderBook book;
  Rng rng(1);
  const SortedBook sorted(book, rng);
  EXPECT_EQ(sorted.buyer_count(), 0u);
  EXPECT_EQ(sorted.seller_count(), 0u);
  EXPECT_EQ(sorted.efficient_trade_count(), 0u);
  // Sentinels still work at rank 1.
  EXPECT_EQ(sorted.buyer_value(1), book.domain().lowest);
  EXPECT_EQ(sorted.seller_value(1), book.domain().highest);
}

TEST(SortedBookTest, CountsAtThreshold) {
  OrderBook book = example1_book();
  Rng rng(1);
  const SortedBook sorted(book, rng);
  // r = 4.5: buyers {9, 8, 7} >= r; sellers {2, 3, 4} <= r.
  EXPECT_EQ(sorted.buyers_at_or_above(money(4.5)), 3u);
  EXPECT_EQ(sorted.sellers_at_or_below(money(4.5)), 3u);
  // Boundary inclusion: a value equal to r counts on both sides.
  EXPECT_EQ(sorted.buyers_at_or_above(Money::from_units(4)), 4u);
  EXPECT_EQ(sorted.sellers_at_or_below(Money::from_units(4)), 3u);
  EXPECT_EQ(sorted.buyers_at_or_above(Money::from_units(100)), 0u);
  EXPECT_EQ(sorted.sellers_at_or_below(Money::from_units(0)), 0u);
}

TEST(SortedBookTest, EfficientTradeCountExample1) {
  OrderBook book = example1_book();
  Rng rng(1);
  const SortedBook sorted(book, rng);
  // b(3) = 7 >= s(3) = 4 but b(4) = 4 < s(4) = 5 -> k = 3.
  EXPECT_EQ(sorted.efficient_trade_count(), 3u);
}

TEST(SortedBookTest, EfficientTradeCountZeroWhenNoOverlap) {
  OrderBook book;
  book.add_buyer(IdentityId{0}, Money::from_units(2));
  book.add_seller(IdentityId{1}, Money::from_units(10));
  Rng rng(1);
  const SortedBook sorted(book, rng);
  EXPECT_EQ(sorted.efficient_trade_count(), 0u);
}

/// The paper's k by definition: walk the ranks while b(t) >= s(t).
std::size_t linear_trade_count(const SortedBook& book) {
  const std::size_t limit = std::min(book.buyer_count(), book.seller_count());
  std::size_t k = 0;
  while (k < limit && book.buyers()[k].value >= book.sellers()[k].value) ++k;
  return k;
}

TEST(SortedBookTest, EfficientTradeCountMatchesLinearScan) {
  // Tie-dense lanes of every shape, plus books built to cross at rank 0
  // (every buyer below every seller) and at min(m, n) (every buyer above
  // every seller), with m below, equal to and above n.
  Rng rng(0xc0ffee);
  std::size_t crossed_at_zero = 0;
  std::size_t crossed_at_limit = 0;
  for (int run = 0; run < 600; ++run) {
    const std::size_t m = rng.below(12);
    const std::size_t n = rng.below(12);
    // Values 0-5 on both sides overlap; lifting one side by 10 puts it
    // wholly above the other.
    const std::int64_t buyer_lift = run % 3 == 2 ? 10 : 0;
    const std::int64_t seller_lift = run % 3 == 1 ? 10 : 0;
    OrderBook book;
    for (std::size_t i = 0; i < m; ++i) {
      book.add_buyer(IdentityId{i},
                     Money::from_units(buyer_lift + static_cast<std::int64_t>(
                                                        rng.below(6))));
    }
    for (std::size_t j = 0; j < n; ++j) {
      book.add_seller(IdentityId{100 + j},
                      Money::from_units(seller_lift + static_cast<std::int64_t>(
                                                          rng.below(6))));
    }
    const SortedBook sorted(book, rng);
    const std::size_t k = sorted.efficient_trade_count();
    EXPECT_EQ(k, linear_trade_count(sorted)) << "m=" << m << " n=" << n;
    crossed_at_zero += k == 0 && std::min(m, n) > 0;
    crossed_at_limit += k == std::min(m, n) && k > 0;
  }
  EXPECT_GT(crossed_at_zero, 0u);
  EXPECT_GT(crossed_at_limit, 0u);
}

TEST(SortedBookTest, TieBreakingIsRandomButValueOrdered) {
  OrderBook book;
  for (std::uint64_t i = 0; i < 6; ++i) {
    book.add_buyer(IdentityId{i}, Money::from_units(5));
  }
  // Count how often each identity lands at rank 1 across seeds.
  std::map<std::uint64_t, int> first_counts;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    Rng rng(seed);
    const SortedBook sorted(book, rng);
    ++first_counts[sorted.buyer(1).identity.value()];
    for (std::size_t rank = 1; rank + 1 <= 6; ++rank) {
      EXPECT_GE(sorted.buyer_value(rank), sorted.buyer_value(rank + 1));
    }
  }
  EXPECT_EQ(first_counts.size(), 6u) << "every tied bid should sometimes win";
  for (const auto& [identity, count] : first_counts) {
    EXPECT_GT(count, 40) << "identity " << identity
                         << " underrepresented at rank 1";
  }
}

TEST(SortedBookTest, SameSeedSameOrder) {
  OrderBook book;
  for (std::uint64_t i = 0; i < 8; ++i) {
    book.add_buyer(IdentityId{i}, Money::from_units(5));
  }
  Rng rng1(99);
  Rng rng2(99);
  const SortedBook a(book, rng1);
  const SortedBook b(book, rng2);
  for (std::size_t rank = 1; rank <= 8; ++rank) {
    EXPECT_EQ(a.buyer(rank).identity, b.buyer(rank).identity);
  }
}

enum class LaneKind {
  kRandom,
  kTieDense,
  kAllEqual,
  kOutlierCluster,  // one far value, the rest inside one bucket
  kNegative,
  kFullRange,  // the limits of an all-int64 domain: hi - lo overflows int64
};

ValueDomain lane_domain(LaneKind kind) {
  switch (kind) {
    case LaneKind::kNegative:
      return {Money::from_units(-1'000), Money::from_units(0)};
    case LaneKind::kFullRange:
      return {Money::min_value(), Money::max_value()};
    default:
      return {};
  }
}

/// The value of entry `index` of a lane of `kind`.
Money lane_value(LaneKind kind, Rng& rng, std::size_t index) {
  switch (kind) {
    case LaneKind::kRandom:
      return Money::from_micros(
          static_cast<std::int64_t>(rng.below(100'000'001)));
    case LaneKind::kTieDense:
      return Money::from_units(static_cast<std::int64_t>(rng.below(11)));
    case LaneKind::kAllEqual:
      break;
    case LaneKind::kOutlierCluster:
      // A 1e9-unit span puts every cluster value, 50 units plus at most
      // 100 micros, into the same bucket.
      if (index == 0) return Money::from_units(1'000'000'000);
      return Money::from_micros(50'000'000 +
                                static_cast<std::int64_t>(rng.below(101)));
    case LaneKind::kNegative:
      return Money::from_micros(-static_cast<std::int64_t>(
          rng.below(1'000'000'001)));
    case LaneKind::kFullRange: {
      const std::int64_t lowest = Money::min_value().micros();
      const std::int64_t highest = Money::max_value().micros();
      switch (rng.below(5)) {
        case 0:
          return Money::from_micros(lowest +
                                    static_cast<std::int64_t>(rng.below(2)));
        case 1:
          return Money::from_micros(highest -
                                    static_cast<std::int64_t>(rng.below(2)));
        case 2:
          return Money::from_micros(0);
        default:
          return Money::from_micros(static_cast<std::int64_t>(rng()));
      }
    }
  }
  return Money::from_units(7);
}

TEST(SortedBookTest, RebuildMatchesShuffleThenStableSortOracle) {
  // The footnote-5 ranking spelled out: copy each lane, shuffle buyers
  // then sellers, then std::stable_sort by value.  rebuild must produce
  // the same entries in the same order and leave the Rng in the same
  // state, around the bucket kernel's limits: bucket boundaries at 31-33
  // entries, the 64-entry cap where it hands over to std::stable_sort,
  // and lanes whose span or sign stress its bucket map.
  Rng values(0x0dd5eed);
  for (const LaneKind kind :
       {LaneKind::kRandom, LaneKind::kTieDense, LaneKind::kAllEqual,
        LaneKind::kOutlierCluster, LaneKind::kNegative,
        LaneKind::kFullRange}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{500}}) {
      OrderBook book(lane_domain(kind));
      for (std::size_t i = 0; i < n; ++i) {
        book.add_buyer(IdentityId{i}, lane_value(kind, values, i));
        book.add_seller(IdentityId{n + i}, lane_value(kind, values, i));
      }
      const std::uint64_t seed = values();
      Rng oracle_rng(seed);
      std::vector<BidEntry> buyers = book.buyers();
      std::vector<BidEntry> sellers = book.sellers();
      oracle_rng.shuffle(buyers.begin(), buyers.end());
      oracle_rng.shuffle(sellers.begin(), sellers.end());
      std::stable_sort(buyers.begin(), buyers.end(),
                       [](const BidEntry& a, const BidEntry& b) {
                         return a.value > b.value;
                       });
      std::stable_sort(sellers.begin(), sellers.end(),
                       [](const BidEntry& a, const BidEntry& b) {
                         return a.value < b.value;
                       });

      Rng rng(seed);
      SortedBook sorted;
      sorted.rebuild(book, rng);
      EXPECT_EQ(sorted.buyers(), buyers)
          << "kind " << static_cast<int>(kind) << " n=" << n;
      EXPECT_EQ(sorted.sellers(), sellers)
          << "kind " << static_cast<int>(kind) << " n=" << n;
      EXPECT_EQ(rng(), oracle_rng())
          << "kind " << static_cast<int>(kind) << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace fnda
