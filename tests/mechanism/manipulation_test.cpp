#include "mechanism/manipulation.h"

#include <gtest/gtest.h>

#include "protocols/pmd.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

// The shared valuations of paper Examples 1/3.
SingleUnitInstance example1_instance() {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8), money(7), money(4)};
  instance.seller_values = {money(2), money(3), money(4), money(5)};
  return instance;
}

// The shared valuations of paper Examples 2/4.
SingleUnitInstance example2_instance() {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8), money(7), money(4)};
  instance.seller_values = {money(2), money(3), money(4), money(12)};
  return instance;
}

TEST(DeviationEvaluatorTest, TruthfulUtilityMatchesPaperExample1) {
  const PmdProtocol pmd;
  // Seller with value 4 (index 2): trades at p0 = 4.5, utility 0.5.
  const DeviationEvaluator evaluator(pmd, example1_instance(),
                                     {Side::kSeller, 2});
  EXPECT_NEAR(evaluator.truthful_utility(), 0.5, 1e-9);
}

TEST(DeviationEvaluatorTest, EvaluatesExplicitStrategy) {
  const PmdProtocol pmd;
  // The Example 1 attack: seller (value 4) adds a fake buyer bid at 4.8.
  const DeviationEvaluator evaluator(pmd, example1_instance(),
                                     {Side::kSeller, 2});
  Strategy attack;
  attack.declarations = {Declaration{Side::kSeller, money(4)},
                         Declaration{Side::kBuyer, money(4.8)}};
  // Price rises to 4.9: utility 4.9 - 4 = 0.9 > 0.5.
  EXPECT_NEAR(evaluator.evaluate(attack), 0.9, 1e-9);
}

TEST(DeviationEvaluatorTest, AbsenceGivesZero) {
  const PmdProtocol pmd;
  const DeviationEvaluator evaluator(pmd, example1_instance(),
                                     {Side::kSeller, 2});
  EXPECT_NEAR(evaluator.evaluate(Strategy{}), 0.0, 1e-9);
}

TEST(DeviationEvaluatorTest, RejectsBadIndex) {
  const PmdProtocol pmd;
  EXPECT_THROW(DeviationEvaluator(pmd, example1_instance(),
                                  {Side::kBuyer, 99}),
               std::out_of_range);
}

TEST(ManipulationSearchTest, FindsExample1AttackOnPmd) {
  // Section 4, Example 1: under PMD a trading seller profits from a
  // false-name buyer bid.  The exhaustive search must find a deviation at
  // least as good as the paper's handcrafted 4.8 bid.
  const PmdProtocol pmd;
  const DeviationEvaluator evaluator(pmd, example1_instance(),
                                     {Side::kSeller, 2});
  SearchConfig config;
  config.max_declarations = 2;
  const SearchResult result = find_best_deviation(evaluator, config);

  EXPECT_NEAR(result.truthful_utility, 0.5, 1e-9);
  EXPECT_TRUE(result.profitable(1e-9))
      << "best " << result.best_strategy.to_string() << " = "
      << result.best_utility;
  EXPECT_GE(result.best_utility, 0.9 - 1e-9);
  EXPECT_FALSE(result.truncated);
}

TEST(ManipulationSearchTest, FindsExample2AttackOnPmd) {
  // Section 4, Example 2: the excluded seller (value 4) gains a trade by
  // adding a fake *seller* bid at 6; utility goes from 0 to 1.
  const PmdProtocol pmd;
  const DeviationEvaluator evaluator(pmd, example2_instance(),
                                     {Side::kSeller, 2});
  const SearchResult result = find_best_deviation(evaluator, {});

  EXPECT_NEAR(result.truthful_utility, 0.0, 1e-9);
  EXPECT_TRUE(result.profitable(1e-9));
  EXPECT_GE(result.best_utility, 1.0 - 1e-9);
}

TEST(ManipulationSearchTest, PmdTruthfulWithoutFalseNames) {
  // PMD is dominant-strategy IC when strategies are single bids on the
  // account's own side (McAfee 1992).  Restrict the alphabet accordingly
  // by searching only size-1 strategies and verifying no single *own-side*
  // misreport profits.  (A size-1 wrong-side bid is already a false name.)
  const PmdProtocol pmd;
  const SingleUnitInstance instance = example1_instance();
  for (std::size_t index = 0; index < 4; ++index) {
    for (Side role : {Side::kBuyer, Side::kSeller}) {
      const DeviationEvaluator evaluator(pmd, instance, {role, index});
      const double truthful = evaluator.truthful_utility();
      for (Money v :
           candidate_values(instance, evaluator.true_value())) {
        const double deviant = evaluator.evaluate(Strategy::misreport(role, v));
        EXPECT_LE(deviant, truthful + 1e-9)
            << to_string(role) << " index " << index << " misreport "
            << v.to_string();
      }
    }
  }
}

TEST(ManipulationSearchTest, TpdRobustOnExample1Instance) {
  // Example 3: with r = 4.5 no participant gains from any deviation,
  // including false-name bids.
  const TpdProtocol tpd(money(4.5));
  const SingleUnitInstance instance = example1_instance();
  for (std::size_t index = 0; index < 4; ++index) {
    for (Side role : {Side::kBuyer, Side::kSeller}) {
      const DeviationEvaluator evaluator(tpd, instance, {role, index});
      const SearchResult result = find_best_deviation(evaluator, {});
      EXPECT_FALSE(result.profitable(1e-9))
          << to_string(role) << " index " << index << " profits via "
          << result.best_strategy.to_string() << ": "
          << result.truthful_utility << " -> " << result.best_utility;
    }
  }
}

TEST(ManipulationSearchTest, TpdRobustOnExample2InstanceBothThresholds) {
  // Example 4 uses r = 6 and r = 7.5 on the Example 2 valuations.
  const SingleUnitInstance instance = example2_instance();
  for (Money r : {money(6), money(7.5)}) {
    const TpdProtocol tpd(r);
    for (std::size_t index = 0; index < 4; ++index) {
      for (Side role : {Side::kBuyer, Side::kSeller}) {
        const DeviationEvaluator evaluator(tpd, instance, {role, index});
        const SearchResult result = find_best_deviation(evaluator, {});
        EXPECT_FALSE(result.profitable(1e-9))
            << "r=" << r.to_string() << ' ' << to_string(role) << " index "
            << index << " profits via " << result.best_strategy.to_string();
      }
    }
  }
}

TEST(ManipulationSearchTest, CandidateGridCoversInstanceValues) {
  const SingleUnitInstance instance = example1_instance();
  const auto grid = candidate_values(instance, money(42));
  auto contains = [&grid](Money v) {
    return std::find(grid.begin(), grid.end(), v) != grid.end();
  };
  for (Money v : instance.buyer_values) EXPECT_TRUE(contains(v));
  for (Money v : instance.seller_values) EXPECT_TRUE(contains(v));
  EXPECT_TRUE(contains(money(42)));
  EXPECT_TRUE(contains(instance.domain.lowest));
  EXPECT_TRUE(contains(instance.domain.highest));
  // Midpoints between adjacent values, e.g. (4+5)/2.
  EXPECT_TRUE(contains(money(4.5)));
  // Grid is sorted and unique.
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  EXPECT_EQ(std::adjacent_find(grid.begin(), grid.end()), grid.end());
}

TEST(ManipulationSearchTest, TruncationCapRespected) {
  const TpdProtocol tpd(money(4.5));
  const DeviationEvaluator evaluator(tpd, example1_instance(),
                                     {Side::kBuyer, 0});
  SearchConfig config;
  config.max_strategies = 10;
  const SearchResult result = find_best_deviation(evaluator, config);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.strategies_evaluated, 10u);
}

TEST(ManipulationSearchTest, SearchReportsEvaluationCount) {
  const TpdProtocol tpd(money(4.5));
  const DeviationEvaluator evaluator(tpd, example1_instance(),
                                     {Side::kBuyer, 0});
  SearchConfig config;
  config.max_declarations = 1;
  const SearchResult result = find_best_deviation(evaluator, config);
  EXPECT_GT(result.strategies_evaluated, 10u);
  EXPECT_FALSE(result.truncated);
}

}  // namespace
}  // namespace fnda
