// Differential and metamorphic property tests across protocols.
//
// These catch the bug classes unit tests miss: divergence between the
// public clear() and the sort-once clear_sorted() path, sensitivity
// to submission order, and violations of scale/translation symmetries the
// protocol definitions imply.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/validation.h"
#include "mechanism/properties.h"
#include "protocols/efficient.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "protocols/vcg.h"

namespace fnda {
namespace {

InstanceSpec fuzz_spec() {
  InstanceSpec spec;
  spec.min_buyers = 0;
  spec.max_buyers = 15;
  spec.min_sellers = 0;
  spec.max_sellers = 15;
  return spec;
}

TEST(FuzzTest, ClearMatchesClearSorted) {
  // The Rng consumed by clear() is exactly the SortedBook construction's;
  // feeding the same stream to an explicit SortedBook must reproduce the
  // outcome bit for bit.
  Rng rng(0xf022);
  for (int run = 0; run < 300; ++run) {
    const SingleUnitInstance instance = random_instance(fuzz_spec(), rng);
    const InstantiatedMarket market = instantiate_truthful(instance);
    const std::uint64_t seed = rng();

    {
      Rng a(seed);
      Rng b(seed);
      const SortedBook sorted(market.book, b);
      EXPECT_EQ(PmdProtocol().clear(market.book, a).fills(),
                PmdProtocol().clear_sorted(sorted, b).fills());
    }
    {
      Rng a(seed);
      Rng b(seed);
      const SortedBook sorted(market.book, b);
      EXPECT_EQ(TpdProtocol(money(50)).clear(market.book, a).fills(),
                TpdProtocol(money(50)).clear_sorted(sorted, b).fills());
    }
    {
      Rng a(seed);
      Rng b(seed);
      const SortedBook sorted(market.book, b);
      EXPECT_EQ(EfficientClearing().clear(market.book, a).fills(),
                EfficientClearing().clear_sorted(sorted, b).fills());
    }
    {
      Rng a(seed);
      Rng b(seed);
      const SortedBook sorted(market.book, b);
      EXPECT_EQ(VcgDoubleAuction().clear(market.book, a).fills(),
                VcgDoubleAuction().clear_sorted(sorted, b).fills());
    }
  }
}

/// Fills reduced to (identity -> price) sets so submission order and
/// tie-break permutations don't matter.
std::multiset<std::tuple<bool, std::uint64_t, std::int64_t>> fill_set(
    const Outcome& outcome) {
  std::multiset<std::tuple<bool, std::uint64_t, std::int64_t>> set;
  for (const Fill& fill : outcome.fills()) {
    set.insert({fill.side == Side::kBuyer, fill.identity.value(),
                fill.price.micros()});
  }
  return set;
}

TEST(FuzzTest, SubmissionOrderIrrelevantWithoutTies) {
  // Distinct values (micro-resolution uniform draws): permuting the book
  // must not change who trades at what price.
  Rng rng(0xf044);
  for (int run = 0; run < 200; ++run) {
    const SingleUnitInstance instance = random_instance(fuzz_spec(), rng);

    OrderBook forward;
    OrderBook backward;
    for (std::size_t i = 0; i < instance.buyer_values.size(); ++i) {
      forward.add_buyer(IdentityId{i}, instance.buyer_values[i]);
    }
    for (std::size_t j = 0; j < instance.seller_values.size(); ++j) {
      forward.add_seller(IdentityId{1000 + j}, instance.seller_values[j]);
    }
    for (std::size_t j = instance.seller_values.size(); j-- > 0;) {
      backward.add_seller(IdentityId{1000 + j}, instance.seller_values[j]);
    }
    for (std::size_t i = instance.buyer_values.size(); i-- > 0;) {
      backward.add_buyer(IdentityId{i}, instance.buyer_values[i]);
    }

    for (const Money r : {money(25), money(50), money(75)}) {
      Rng a(run);
      Rng b(run * 31 + 7);
      EXPECT_EQ(fill_set(TpdProtocol(r).clear(forward, a)),
                fill_set(TpdProtocol(r).clear(backward, b)));
    }
    Rng a(run);
    Rng b(run * 131 + 1);
    EXPECT_EQ(fill_set(PmdProtocol().clear(forward, a)),
              fill_set(PmdProtocol().clear(backward, b)));
  }
}

TEST(FuzzTest, TpdIgnoresIneligibleDeclarations) {
  // Adding a buyer below r or a seller above r changes nothing.
  Rng rng(0xf055);
  const Money r = money(50);
  for (int run = 0; run < 200; ++run) {
    const SingleUnitInstance instance = random_instance(fuzz_spec(), rng);
    const InstantiatedMarket market = instantiate_truthful(instance);

    OrderBook padded(instance.domain);
    for (const BidEntry& e : market.book.buyers()) {
      padded.add_buyer(e.identity, e.value);
    }
    for (const BidEntry& e : market.book.sellers()) {
      padded.add_seller(e.identity, e.value);
    }
    padded.add_buyer(IdentityId{777}, rng.uniform_money(money(0), money(49)));
    padded.add_seller(IdentityId{888},
                      rng.uniform_money(money(51), money(100)));

    Rng a(run);
    Rng b(run * 17 + 3);
    EXPECT_EQ(fill_set(TpdProtocol(r).clear(market.book, a)),
              fill_set(TpdProtocol(r).clear(padded, b)));
  }
}

TEST(FuzzTest, TpdTranslationCovariance) {
  // Shifting every value and the threshold by a constant shifts every
  // price by that constant and preserves the allocation.
  Rng rng(0xf066);
  const Money shift = money(13);
  for (int run = 0; run < 150; ++run) {
    InstanceSpec spec = fuzz_spec();
    const SingleUnitInstance instance = random_instance(spec, rng);

    OrderBook base;
    OrderBook shifted;
    for (std::size_t i = 0; i < instance.buyer_values.size(); ++i) {
      base.add_buyer(IdentityId{i}, instance.buyer_values[i]);
      shifted.add_buyer(IdentityId{i}, instance.buyer_values[i] + shift);
    }
    for (std::size_t j = 0; j < instance.seller_values.size(); ++j) {
      base.add_seller(IdentityId{1000 + j}, instance.seller_values[j]);
      shifted.add_seller(IdentityId{1000 + j},
                         instance.seller_values[j] + shift);
    }

    Rng a(run);
    Rng b(run);
    const Outcome base_outcome = TpdProtocol(money(50)).clear(base, a);
    const Outcome shifted_outcome =
        TpdProtocol(money(50) + shift).clear(shifted, b);

    ASSERT_EQ(base_outcome.trade_count(), shifted_outcome.trade_count());
    auto base_fills = fill_set(base_outcome);
    auto expected = fill_set(shifted_outcome);
    // Shift the base fills' prices up and compare.
    std::multiset<std::tuple<bool, std::uint64_t, std::int64_t>> adjusted;
    for (auto [is_buyer, identity, price] : base_fills) {
      adjusted.insert({is_buyer, identity, price + shift.micros()});
    }
    EXPECT_EQ(adjusted, expected);
  }
}

TEST(FuzzTest, ExtremeDomainValuesHandled) {
  // Bids exactly at the domain edges exercise the sentinel arithmetic.
  OrderBook book;  // default domain [0, 1e9]
  book.add_buyer(IdentityId{0}, Money::from_units(1'000'000'000));
  book.add_buyer(IdentityId{1}, Money::from_units(0));
  book.add_seller(IdentityId{2}, Money::from_units(0));
  book.add_seller(IdentityId{3}, Money::from_units(1'000'000'000));

  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const Outcome tpd = TpdProtocol(money(50)).clear(book, rng);
    expect_valid_outcome(book, tpd);
    Rng rng2(seed);
    const Outcome pmd = PmdProtocol().clear(book, rng2);
    expect_valid_outcome(book, pmd);
    Rng rng3(seed);
    const Outcome vcg = VcgDoubleAuction().clear(book, rng3);
    expect_valid_outcome(book, vcg, ValidationOptions{true});
  }
}

TEST(FuzzTest, AllTiesBookStaysValidUnderEveryProtocol) {
  // Every declaration identical: maximal tie-breaking stress.
  OrderBook book;
  for (std::uint64_t i = 0; i < 12; ++i) {
    book.add_buyer(IdentityId{i}, money(50));
    book.add_seller(IdentityId{100 + i}, money(50));
  }
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const Outcome outcome = TpdProtocol(money(50)).clear(book, rng);
    expect_valid_outcome(book, outcome);
    EXPECT_EQ(outcome.trade_count(), 12u);  // i == j == 12, case 1
    Rng rng2(seed);
    expect_valid_outcome(book, PmdProtocol().clear(book, rng2));
  }
}

}  // namespace
}  // namespace fnda
