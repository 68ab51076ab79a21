#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"

namespace fnda {
namespace {

TEST(ExperimentTest, RunsRequestedInstances) {
  const TpdProtocol tpd(money(50));
  ExperimentConfig config;
  config.instances = 25;
  const ComparisonResult result =
      run_comparison(fixed_count_generator(5, 5), {&tpd}, config);
  EXPECT_EQ(result.pareto.count(), 25u);
  ASSERT_EQ(result.protocols.size(), 1u);
  EXPECT_EQ(result.protocols[0].total.count(), 25u);
  EXPECT_EQ(result.protocols[0].name, "tpd");
}

TEST(ExperimentTest, SummaryLookupByName) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  ExperimentConfig config;
  config.instances = 10;
  const ComparisonResult result =
      run_comparison(fixed_count_generator(5, 5), {&tpd, &pmd}, config);
  EXPECT_EQ(result.summary("pmd").name, "pmd");
  EXPECT_EQ(result.summary("tpd").name, "tpd");
  EXPECT_THROW(result.summary("nope"), std::out_of_range);
}

TEST(ExperimentTest, RatiosBoundedByOne) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const EfficientClearing efficient;
  ExperimentConfig config;
  config.instances = 200;
  const ComparisonResult result = run_comparison(
      fixed_count_generator(10, 10), {&tpd, &pmd, &efficient}, config);

  for (const char* name : {"tpd", "pmd", "efficient"}) {
    EXPECT_GT(result.ratio_total(name), 0.0) << name;
    EXPECT_LE(result.ratio_total(name), 1.0 + 1e-9) << name;
    EXPECT_LE(result.ratio_except_auctioneer(name),
              result.ratio_total(name) + 1e-12)
        << name;
  }
  // The efficient oracle achieves the bound exactly.
  EXPECT_NEAR(result.ratio_total("efficient"), 1.0, 1e-12);
}

TEST(ExperimentTest, PaperTrendTpdApproachesParetoWithScale) {
  // Table 1's qualitative claim: TPD efficiency rises toward 100% as the
  // market grows.
  const TpdProtocol tpd(money(50));
  ExperimentConfig config;
  config.instances = 300;
  const ComparisonResult small =
      run_comparison(fixed_count_generator(5, 5), {&tpd}, config);
  const ComparisonResult large =
      run_comparison(fixed_count_generator(100, 100), {&tpd}, config);
  EXPECT_GT(large.ratio_total("tpd"), small.ratio_total("tpd"));
  EXPECT_GT(large.ratio_total("tpd"), 0.98);
  EXPECT_GT(small.ratio_total("tpd"), 0.85);
}

TEST(ExperimentTest, PmdBeatsOrMatchesTpdOnTradersSurplus) {
  // Table 1: PMD's "except auctioneer" column dominates TPD's (PMD hands
  // almost nothing to the auctioneer).
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  ExperimentConfig config;
  config.instances = 300;
  const ComparisonResult result =
      run_comparison(fixed_count_generator(25, 25), {&tpd, &pmd}, config);
  EXPECT_GT(result.ratio_except_auctioneer("pmd"),
            result.ratio_except_auctioneer("tpd"));
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  const TpdProtocol tpd(money(50));
  ExperimentConfig config;
  config.instances = 50;
  config.seed = 123;
  const ComparisonResult a =
      run_comparison(fixed_count_generator(8, 8), {&tpd}, config);
  const ComparisonResult b =
      run_comparison(fixed_count_generator(8, 8), {&tpd}, config);
  EXPECT_DOUBLE_EQ(a.protocols[0].total.mean(), b.protocols[0].total.mean());
  EXPECT_DOUBLE_EQ(a.pareto.mean(), b.pareto.mean());
}

TEST(ExperimentTest, TradeCountsTracked) {
  const EfficientClearing efficient;
  ExperimentConfig config;
  config.instances = 100;
  const ComparisonResult result =
      run_comparison(fixed_count_generator(20, 20), {&efficient}, config);
  EXPECT_DOUBLE_EQ(result.summary("efficient").trades.mean(),
                   result.pareto_trades.mean());
  EXPECT_GT(result.pareto_trades.mean(), 5.0);
}

TEST(ExperimentTest, EmptyMarketsYieldZeroSurplus) {
  const TpdProtocol tpd(money(50));
  ExperimentConfig config;
  config.instances = 5;
  const ComparisonResult result =
      run_comparison(fixed_count_generator(0, 0), {&tpd}, config);
  EXPECT_DOUBLE_EQ(result.pareto.mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.ratio_total("tpd"), 0.0);  // guarded division
}

// --- Truthful scoring without identity maps ---------------------------------

void expect_same_bits(const SurplusReport& a, const SurplusReport& b,
                      const char* protocol) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(a.total), bits(b.total)) << protocol;
  EXPECT_EQ(bits(a.except_auctioneer), bits(b.except_auctioneer)) << protocol;
  EXPECT_EQ(bits(a.auctioneer), bits(b.auctioneer)) << protocol;
  EXPECT_EQ(bits(a.buyers), bits(b.buyers)) << protocol;
  EXPECT_EQ(bits(a.sellers), bits(b.sellers)) << protocol;
}

TEST(TruthfulScoringTest, InstanceScoringAndReusedBookMatchInstantiatedMarket) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const EfficientClearing efficient;
  const RandomThresholdProtocol random_threshold(money(50));
  const KDoubleAuction kda(0.5);
  const VcgDoubleAuction vcg;
  const TpdWithRebates tpd_rebate(money(50));
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &efficient, &random_threshold, &kda, &vcg, &tpd_rebate};
  // Sizes change from draw to draw, and some draws leave a side empty.
  const std::vector<InstanceGenerator> generators = {
      fixed_count_generator(40, 40), fixed_count_generator(7, 3),
      fixed_count_generator(0, 5),   fixed_count_generator(6, 0),
      fixed_count_generator(0, 0),   binomial_count_generator(30),
      binomial_count_generator(2)};

  Rng rng(0x7e57);
  OrderBook reused;
  for (int draw = 0; draw < 140; ++draw) {
    const SingleUnitInstance instance =
        generators[static_cast<std::size_t>(draw) % generators.size()](rng);
    const InstantiatedMarket market = instantiate_truthful(instance);
    truthful_book(instance, reused);
    ASSERT_EQ(reused.buyers(), market.book.buyers()) << draw;
    ASSERT_EQ(reused.sellers(), market.book.sellers()) << draw;

    const SortedBook ranked(market.book, rng);
    const std::uint64_t seed = rng();
    for (const DoubleAuctionProtocol* protocol : protocols) {
      Rng clear_rng(seed);
      const Outcome outcome = protocol->clear_sorted(ranked, clear_rng);
      expect_same_bits(realized_surplus(outcome, instance),
                       realized_surplus(outcome, market.truth),
                       protocol->name().c_str());
    }
  }
}

TEST(TruthfulScoringTest, IdentityOutsideTheTruthfulConventionThrows) {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8)};
  instance.seller_values = {money(2)};

  Outcome past_buyers;
  past_buyers.add_buy(BidId{0}, IdentityId{2}, money(5));
  EXPECT_THROW(realized_surplus(past_buyers, instance), std::out_of_range);

  Outcome below_seller_base;
  below_seller_base.add_sell(BidId{0}, IdentityId{0}, money(5));
  EXPECT_THROW(realized_surplus(below_seller_base, instance),
               std::out_of_range);

  Outcome past_sellers;
  past_sellers.add_sell(BidId{0}, IdentityId{kSellerIdentityBase + 1},
                        money(5));
  EXPECT_THROW(realized_surplus(past_sellers, instance), std::out_of_range);
}

}  // namespace
}  // namespace fnda
