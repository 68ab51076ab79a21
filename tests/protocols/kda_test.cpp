#include "protocols/kda.h"

#include <gtest/gtest.h>

#include "core/surplus.h"
#include "core/validation.h"
#include "mechanism/manipulation.h"
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

TEST(KdaTest, PriceInterpolatesMarginalPair) {
  OrderBook book = example1();
  // k = 3: b(3) = 7, s(3) = 4.
  const std::pair<double, double> cases[] = {
      {0.0, 4.0}, {0.5, 5.5}, {1.0, 7.0}, {0.25, 4.75}};
  for (const auto& [theta, expected] : cases) {
    Rng rng(1);
    const Outcome outcome = KDoubleAuction(theta).clear(book, rng);
    ASSERT_EQ(outcome.trade_count(), 3u) << theta;
    for (const Fill& fill : outcome.fills()) {
      EXPECT_EQ(fill.price, money(expected)) << theta;
    }
    EXPECT_EQ(outcome.auctioneer_revenue(), Money{}) << theta;
  }
}

TEST(KdaTest, ThetaClamped) {
  EXPECT_DOUBLE_EQ(KDoubleAuction(-0.5).theta(), 0.0);
  EXPECT_DOUBLE_EQ(KDoubleAuction(1.5).theta(), 1.0);
  EXPECT_DOUBLE_EQ(KDoubleAuction(0.3).theta(), 0.3);
}

TEST(KdaTest, AlwaysEfficientBudgetBalancedIr) {
  InstanceSpec spec;
  spec.max_buyers = 10;
  spec.max_sellers = 10;
  const KDoubleAuction kda(0.5);
  Rng rng(0x6da1);
  for (int run = 0; run < 300; ++run) {
    const SingleUnitInstance instance = random_instance(spec, rng);
    const InstantiatedMarket market = instantiate_truthful(instance);
    Rng clear_rng = rng.split();
    const Outcome outcome = kda.clear(market.book, clear_rng);
    EXPECT_TRUE(validate_outcome(market.book, outcome).empty());
    Rng sort_rng = rng.split();
    const SortedBook sorted(market.book, sort_rng);
    EXPECT_NEAR(realized_surplus(outcome, market.truth).total,
                efficient_surplus(sorted), 1e-9);
  }
}

TEST(KdaTest, MarginalBuyerProfitsFromShading) {
  // The textbook non-IC case: the marginal buyer sets the price with its
  // own bid (theta > 0), so shading down to just above s(k) pays.
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(7)};
  instance.seller_values = {money(2), money(3)};
  // k = 2, b(2) = 7 is marginal; price = 0.5*7 + 0.5*3 = 5.
  const KDoubleAuction kda(0.5);
  const DeviationEvaluator evaluator(kda, instance, {Side::kBuyer, 1});
  EXPECT_NEAR(evaluator.truthful_utility(), 7.0 - 5.0, 1e-9);
  // Shading to 3 drops the price to 0.5*3 + 0.5*3 = 3: utility 4.
  const double shaded =
      evaluator.evaluate(Strategy::misreport(Side::kBuyer, money(3)));
  EXPECT_NEAR(shaded, 7.0 - 3.0, 1e-9);
  EXPECT_GT(shaded, evaluator.truthful_utility());
}

TEST(KdaTest, NotIncentiveCompatibleEvenWithoutFalseNames) {
  const KDoubleAuction kda(0.5);
  IcCheckConfig config;
  config.instances = 30;
  config.manipulators_per_instance = 2;
  config.instance_spec.max_buyers = 5;
  config.instance_spec.max_sellers = 5;
  config.search.max_declarations = 1;  // misreports only
  config.seed = 0x6da;
  const IcCheckReport report = check_incentive_compatibility(kda, config);
  EXPECT_FALSE(report.clean())
      << "kDA should be manipulable by simple misreports";
  // Every violation is a single own-side declaration (no false name
  // needed) or an abstention.
  for (const IcViolation& violation : report.violations) {
    EXPECT_LE(violation.strategy.declarations.size(), 1u);
  }
}

TEST(KdaTest, ExtremeThetasAreOneSidedIc) {
  // theta = 0: price = s(k); buyers can't influence it downward, so
  // *buyers* are truthful (this is the buyer's-bid double auction dual).
  const KDoubleAuction seller_priced(0.0);
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(7)};
  instance.seller_values = {money(2), money(3)};
  for (std::size_t index : {std::size_t{0}, std::size_t{1}}) {
    const DeviationEvaluator evaluator(seller_priced, instance,
                                       {Side::kBuyer, index});
    const double truthful = evaluator.truthful_utility();
    for (Money v : candidate_values(instance, evaluator.true_value())) {
      EXPECT_LE(evaluator.evaluate(Strategy::misreport(Side::kBuyer, v)),
                truthful + 1e-9);
    }
  }
}

TEST(KdaTest, EmptyBook) {
  OrderBook book;
  Rng rng(1);
  EXPECT_EQ(KDoubleAuction(0.5).clear(book, rng).trade_count(), 0u);
}

}  // namespace
}  // namespace fnda
