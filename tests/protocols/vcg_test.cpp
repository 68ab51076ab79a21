#include "protocols/vcg.h"

#include <gtest/gtest.h>

#include "core/surplus.h"
#include "core/validation.h"
#include "mechanism/properties.h"

namespace fnda {
namespace {

OrderBook example1() {
  OrderBook book;
  book.add_buyer(IdentityId{0}, money(9));
  book.add_buyer(IdentityId{1}, money(8));
  book.add_buyer(IdentityId{2}, money(7));
  book.add_buyer(IdentityId{3}, money(4));
  book.add_seller(IdentityId{10}, money(2));
  book.add_seller(IdentityId{11}, money(3));
  book.add_seller(IdentityId{12}, money(4));
  book.add_seller(IdentityId{13}, money(5));
  return book;
}

/// Brute-force Clarke pivot: declared efficient welfare of everyone except
/// `self`, computed on a book with `self` removed, minus their welfare in
/// `self`'s presence.
double brute_force_buyer_payment(const SingleUnitInstance& instance,
                                 std::size_t buyer_index) {
  auto welfare = [](std::vector<Money> buyers, std::vector<Money> sellers) {
    std::sort(buyers.begin(), buyers.end(), std::greater<>());
    std::sort(sellers.begin(), sellers.end());
    double w = 0.0;
    for (std::size_t l = 0; l < std::min(buyers.size(), sellers.size());
         ++l) {
      if (buyers[l] < sellers[l]) break;
      w += (buyers[l] - sellers[l]).to_double();
    }
    return w;
  };
  const double with_all =
      welfare(instance.buyer_values, instance.seller_values);
  std::vector<Money> without = instance.buyer_values;
  const Money own = without[buyer_index];
  without.erase(without.begin() + static_cast<std::ptrdiff_t>(buyer_index));
  const double others_without = welfare(without, instance.seller_values);
  // Others' welfare with the buyer present: total minus the buyer's own
  // gross value if it wins (it wins iff removing it changes the pairing).
  // Payment = others_without - (with_all - own_gross_if_winning); for a
  // winning buyer own gross value = its declared value.
  return others_without - (with_all - own.to_double());
}

TEST(VcgTest, Example1PricesMatchClosedForm) {
  OrderBook book = example1();
  Rng rng(1);
  const SortedBook sorted(book, rng);
  // k = 3; buyer price = max(b(4), s(3)) = max(4, 4) = 4;
  // seller price = min(s(4), b(3)) = min(5, 7) = 5.
  EXPECT_EQ(VcgDoubleAuction::buyer_price(sorted), money(4));
  EXPECT_EQ(VcgDoubleAuction::seller_price(sorted), money(5));

  const Outcome outcome = VcgDoubleAuction().clear_sorted(sorted, rng);
  EXPECT_EQ(outcome.trade_count(), 3u);
  // Deficit: 3 * (5 - 4) = 3 paid in by the auctioneer.
  EXPECT_EQ(outcome.auctioneer_revenue(), money(-3));
}

TEST(VcgTest, OutcomeValidUnderDeficitRelaxation) {
  OrderBook book = example1();
  Rng rng(1);
  const Outcome outcome = VcgDoubleAuction().clear(book, rng);
  // Strict validation flags the subsidy...
  EXPECT_FALSE(validate_outcome(book, outcome).empty());
  // ...while the VCG-aware relaxation passes everything else.
  EXPECT_TRUE(
      validate_outcome(book, outcome, ValidationOptions{true}).empty());
}

TEST(VcgTest, AllocationIsAlwaysEfficient) {
  InstanceSpec spec;
  spec.max_buyers = 10;
  spec.max_sellers = 10;
  const VcgDoubleAuction vcg;
  Rng rng(0x5c9);
  for (int run = 0; run < 300; ++run) {
    const SingleUnitInstance instance = random_instance(spec, rng);
    const InstantiatedMarket market = instantiate_truthful(instance);
    Rng clear_rng = rng.split();
    const Outcome outcome = vcg.clear(market.book, clear_rng);
    Rng sort_rng = rng.split();
    const SortedBook sorted(market.book, sort_rng);
    EXPECT_NEAR(realized_surplus(outcome, market.truth).total,
                efficient_surplus(sorted), 1e-9);
  }
}

TEST(VcgTest, PricesMatchBruteForcePivotOnRandomInstances) {
  InstanceSpec spec;
  spec.min_buyers = 2;
  spec.max_buyers = 7;
  spec.min_sellers = 2;
  spec.max_sellers = 7;
  Rng rng(0xc1a);
  for (int run = 0; run < 200; ++run) {
    const SingleUnitInstance instance = random_instance(spec, rng);
    const InstantiatedMarket market = instantiate_truthful(instance);
    Rng sort_rng = rng.split();
    const SortedBook sorted(market.book, sort_rng);
    const std::size_t k = sorted.efficient_trade_count();
    if (k == 0) continue;
    const Money price = VcgDoubleAuction::buyer_price(sorted);
    // Compare against the brute-force pivot of each *winning* buyer.
    for (std::size_t rank = 1; rank <= k; ++rank) {
      const IdentityId identity = sorted.buyer(rank).identity;
      // Find the instance index of this winner.
      const std::size_t index = identity.value();  // buyers use index ids
      EXPECT_NEAR(price.to_double(),
                  brute_force_buyer_payment(instance, index), 1e-9)
          << "run " << run << " rank " << rank;
    }
  }
}

TEST(VcgTest, DeficitNeverNegativeOfItself) {
  // p_b <= p_s always: the auctioneer never *profits* from VCG.
  InstanceSpec spec;
  spec.max_buyers = 8;
  spec.max_sellers = 8;
  const VcgDoubleAuction vcg;
  Rng rng(0xdef1c17);
  for (int run = 0; run < 300; ++run) {
    const SingleUnitInstance instance = random_instance(spec, rng);
    const InstantiatedMarket market = instantiate_truthful(instance);
    Rng clear_rng = rng.split();
    const Outcome outcome = vcg.clear(market.book, clear_rng);
    EXPECT_LE(outcome.auctioneer_revenue(), Money{});
  }
}

TEST(VcgTest, TruthfulDominantWithoutFalseNames) {
  // VCG is DSIC for unilateral own-side misreports.
  const VcgDoubleAuction vcg;
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8), money(7), money(4)};
  instance.seller_values = {money(2), money(3), money(4), money(5)};
  for (std::size_t index = 0; index < 4; ++index) {
    for (Side role : {Side::kBuyer, Side::kSeller}) {
      const DeviationEvaluator evaluator(vcg, instance, {role, index});
      const double truthful = evaluator.truthful_utility();
      for (Money v : candidate_values(instance, evaluator.true_value())) {
        EXPECT_LE(evaluator.evaluate(Strategy::misreport(role, v)),
                  truthful + 1e-9)
            << to_string(role) << ' ' << index << " via " << v;
      }
    }
  }
}

TEST(VcgTest, VulnerableToFalseNames) {
  // Sakurai-Yokoo-Matsubara (AAAI-99): the generalized Vickrey auction is
  // not false-name-proof in general; the double-auction VCG isn't either.
  // The exhaustive search should find profitable false-name deviations on
  // random instances.
  const VcgDoubleAuction vcg;
  IcCheckConfig config;
  config.instances = 30;
  config.manipulators_per_instance = 2;
  config.instance_spec.max_buyers = 5;
  config.instance_spec.max_sellers = 5;
  config.search.max_declarations = 2;
  config.seed = 0xfa15e;
  const IcCheckReport report = check_incentive_compatibility(vcg, config);
  EXPECT_FALSE(report.clean())
      << "expected VCG false-name vulnerabilities on random instances";
}

TEST(VcgTest, EmptyAndNoOverlapBooks) {
  const VcgDoubleAuction vcg;
  OrderBook empty;
  Rng rng(1);
  EXPECT_EQ(vcg.clear(empty, rng).trade_count(), 0u);
  OrderBook no_overlap;
  no_overlap.add_buyer(IdentityId{0}, money(1));
  no_overlap.add_seller(IdentityId{1}, money(5));
  EXPECT_EQ(vcg.clear(no_overlap, rng).trade_count(), 0u);
}

}  // namespace
}  // namespace fnda
