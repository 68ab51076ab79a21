#include "core/instance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace fnda {
namespace {

TEST(InstanceTest, InstantiateTruthfulWiresIdentities) {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8)};
  instance.seller_values = {money(2), money(3), money(4)};

  const InstantiatedMarket market = instantiate_truthful(instance);
  EXPECT_EQ(market.book.buyer_count(), 2u);
  EXPECT_EQ(market.book.seller_count(), 3u);
  ASSERT_EQ(market.buyer_identities.size(), 2u);
  ASSERT_EQ(market.seller_identities.size(), 3u);

  // Truth map matches declared values (everyone truthful).
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(market.truth.buyer_values.at(market.buyer_identities[i]),
              instance.buyer_values[i]);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(market.truth.seller_values.at(market.seller_identities[j]),
              instance.seller_values[j]);
  }
}

TEST(InstanceTest, BuyerAndSellerIdentitySpacesDisjoint) {
  SingleUnitInstance instance;
  instance.buyer_values.assign(5, money(1));
  instance.seller_values.assign(5, money(1));
  const InstantiatedMarket market = instantiate_truthful(instance);
  for (IdentityId b : market.buyer_identities) {
    for (IdentityId s : market.seller_identities) {
      EXPECT_NE(b, s);
    }
  }
}

TEST(InstanceTest, EmptyInstance) {
  const InstantiatedMarket market = instantiate_truthful(SingleUnitInstance{});
  EXPECT_EQ(market.book.buyer_count(), 0u);
  EXPECT_EQ(market.book.seller_count(), 0u);
  EXPECT_TRUE(market.truth.buyer_values.empty());
}

/// A lane of `n` values drawn from `distinct` equally likely values
/// (distinct == 0: micro-unit values in [0, 100], practically tie-free).
std::vector<Money> lane(Rng& rng, std::size_t n, std::uint64_t distinct) {
  std::vector<Money> values(n);
  for (Money& value : values) {
    value = distinct == 0 ? Money::from_micros(static_cast<std::int64_t>(
                                rng.below(100'000'001)))
                          : Money::from_units(
                                static_cast<std::int64_t>(rng.below(distinct)));
  }
  return values;
}

TEST(RankTruthfulTest, MatchesTruthfulBookThenRebuildEntryForEntry) {
  // The oracle is the ranking the runner used to build: truthful_book,
  // then SortedBook::rebuild from the same tie stream.  Every book is
  // ranked with and without `expect_ties`.  One SortedBook is reused
  // across every case, so lanes also shrink and grow in place.
  struct Case {
    const char* name;
    std::size_t buyers;
    std::size_t sellers;
    std::uint64_t buyer_distinct;  // 0: tie-free
    std::uint64_t seller_distinct;
  };
  const Case cases[] = {
      {"tie-free", 50, 50, 0, 0},
      {"tie-dense", 50, 50, 11, 11},
      {"all-equal", 50, 50, 1, 1},
      {"ties in sellers only", 50, 40, 0, 5},
      {"ties in buyers only", 30, 50, 5, 0},
      {"no buyers", 0, 20, 0, 3},
      {"no sellers", 20, 0, 3, 0},
      {"empty", 0, 0, 0, 0},
      {"one entry each", 1, 1, 0, 0},
      {"one buyer", 1, 0, 0, 0},
      {"500 tie-free", 500, 500, 0, 0},
      {"500 tie-dense", 500, 500, 21, 21},
      {"500 and 64", 500, 64, 0, 7},
      {"tie-free again", 50, 50, 0, 0},
  };
  Rng values(0x7a11ed);
  SortedBook ranked;
  OrderBook book;
  for (const Case& c : cases) {
    for (int draw = 0; draw < 4; ++draw) {
      SingleUnitInstance instance;
      instance.buyer_values = lane(values, c.buyers, c.buyer_distinct);
      instance.seller_values = lane(values, c.sellers, c.seller_distinct);
      const std::uint64_t seed = values();

      truthful_book(instance, book);
      Rng oracle_rng(seed);
      SortedBook oracle;
      oracle.rebuild(book, oracle_rng);
      bool ties = false;
      for (const auto* lane : {&oracle.buyers(), &oracle.sellers()}) {
        for (std::size_t k = 1; k < lane->size(); ++k) {
          ties = ties || (*lane)[k].value == (*lane)[k - 1].value;
        }
      }
      const std::uint64_t oracle_next = oracle_rng();

      for (const bool expect_ties : {false, true}) {
        Rng tie_rng(seed);
        const bool found =
            rank_truthful(instance, tie_rng, ranked, expect_ties);
        const std::string label = std::string(c.name) + " #" +
                                  std::to_string(draw) +
                                  (expect_ties ? " expecting ties" : "");
        EXPECT_EQ(ranked.buyers(), oracle.buyers()) << label;
        EXPECT_EQ(ranked.sellers(), oracle.sellers()) << label;
        EXPECT_EQ(ranked.domain().lowest, oracle.domain().lowest) << label;
        EXPECT_EQ(ranked.domain().highest, oracle.domain().highest) << label;
        EXPECT_EQ(found, ties) << label;

        // The shuffle runs exactly when a lane holds equal values or ties
        // were expected: then the tie stream ends where rebuild leaves it,
        // otherwise it is untouched.
        Rng untouched(seed);
        EXPECT_EQ(tie_rng(),
                  ties || expect_ties ? oracle_next : untouched())
            << label;
      }
    }
  }
}

TEST(RankTruthfulTest, RejectsWhatTruthfulBookRejects) {
  SortedBook ranked;
  Rng rng(3);
  SingleUnitInstance outside;
  outside.buyer_values = {money(5), money(-1)};
  EXPECT_THROW(rank_truthful(outside, rng, ranked), std::invalid_argument);
  EXPECT_THROW(rank_truthful(outside, rng, ranked, true),
               std::invalid_argument);
  OrderBook book;
  EXPECT_THROW(truthful_book(outside, book), std::invalid_argument);

  SingleUnitInstance degenerate;
  degenerate.domain = {money(10), money(10)};
  EXPECT_THROW(rank_truthful(degenerate, rng, ranked), std::invalid_argument);
  EXPECT_THROW(truthful_book(degenerate, book), std::invalid_argument);
}

}  // namespace
}  // namespace fnda
