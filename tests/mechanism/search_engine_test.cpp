// Equivalence and soundness of the parallel pruned search engine.
//
// The engine's contract is exact: for every protocol, instance, and
// thread count it must return the same best strategy, the same utilities
// bit-for-bit, and the same considered-candidate count as the serial
// reference (`find_best_deviation_serial`).  These tests drive that
// contract across all seven protocols, tie-heavy all-equal-value books,
// thread counts 1/2/8, pruning on/off, and an exhaustive small grid.
#include "mechanism/manipulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "mechanism/multi_manipulation.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_multi.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"

namespace fnda {
namespace {

/// All seven single-unit protocols under test.  Static storage: the
/// evaluator keeps a reference.
const std::vector<const DoubleAuctionProtocol*>& all_protocols() {
  static const TpdProtocol tpd(money(50));
  static const PmdProtocol pmd;
  static const KDoubleAuction kda(0.5);
  static const EfficientClearing efficient;
  static const VcgDoubleAuction vcg;
  static const RandomThresholdProtocol lottery(money(50));
  static const TpdWithRebates rebates(money(50));
  static const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &kda, &efficient, &vcg, &lottery, &rebates};
  return protocols;
}

SingleUnitInstance random_instance(std::uint64_t seed, std::size_t buyers,
                                   std::size_t sellers) {
  SingleUnitInstance instance;
  Rng rng(seed);
  for (std::size_t b = 0; b < buyers; ++b) {
    instance.buyer_values.push_back(
        Money::from_micros(static_cast<std::int64_t>(rng.below(100'000'001))));
  }
  for (std::size_t s = 0; s < sellers; ++s) {
    instance.seller_values.push_back(
        Money::from_micros(static_cast<std::int64_t>(rng.below(100'000'001))));
  }
  return instance;
}

/// Every value identical: the random-tie insertion machinery carries the
/// whole outcome, so any divergence in the engine's rng replay shows.
SingleUnitInstance all_equal_instance(std::size_t per_side) {
  SingleUnitInstance instance;
  for (std::size_t i = 0; i < per_side; ++i) {
    instance.buyer_values.push_back(money(50));
    instance.seller_values.push_back(money(50));
  }
  return instance;
}

void expect_equivalent(const SearchResult& engine, const SearchResult& serial,
                       const std::string& context) {
  // Bit-for-bit, not approximately: both paths must take identical
  // arithmetic per candidate.
  EXPECT_EQ(engine.truthful_utility, serial.truthful_utility) << context;
  EXPECT_EQ(engine.best_utility, serial.best_utility) << context;
  EXPECT_EQ(engine.best_strategy.to_string(),
            serial.best_strategy.to_string())
      << context;
  EXPECT_EQ(engine.strategies_evaluated, serial.strategies_evaluated)
      << context;
  EXPECT_EQ(engine.truncated, serial.truncated) << context;
}

TEST(SearchEngineTest, MatchesSerialOracleOnAllProtocolsAndThreadCounts) {
  for (const DoubleAuctionProtocol* protocol : all_protocols()) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const SingleUnitInstance instance = random_instance(seed, 5, 5);
      for (const Side role : {Side::kBuyer, Side::kSeller}) {
        const DeviationEvaluator evaluator(*protocol, instance, {role, 1});
        SearchConfig config;
        const SearchResult serial =
            find_best_deviation_serial(evaluator, config);
        for (const std::size_t threads : {1u, 2u, 8u}) {
          config.threads = threads;
          const SearchResult engine = find_best_deviation(evaluator, config);
          expect_equivalent(
              engine, serial,
              protocol->name() + " seed=" + std::to_string(seed) +
                  " role=" + std::to_string(static_cast<int>(role)) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(SearchEngineTest, MatchesSerialOracleOnTieHeavyBooks) {
  // All-equal values exercise the footnote-5 random-rank insertion on
  // every declaration; replicates > 1 exercise the per-replicate streams.
  const SingleUnitInstance instance = all_equal_instance(4);
  EvalConfig eval;
  eval.replicates = 8;
  for (const DoubleAuctionProtocol* protocol : all_protocols()) {
    const DeviationEvaluator evaluator(*protocol, instance,
                                       {Side::kSeller, 2}, eval);
    SearchConfig config;
    const SearchResult serial = find_best_deviation_serial(evaluator, config);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      config.threads = threads;
      const SearchResult engine = find_best_deviation(evaluator, config);
      expect_equivalent(engine, serial,
                        protocol->name() + " tie-heavy threads=" +
                            std::to_string(threads));
    }
  }
}

TEST(SearchEngineTest, PruningIsSoundOnExhaustiveSmallGrid) {
  // Same engine with pruning on vs off over an exhaustive grid: the bound
  // may only skip candidates that cannot win, so the results must agree
  // exactly and everything pruned must be accounted for.
  SearchConfig config;
  config.grid_override = {money(10), money(30), money(50), money(70),
                          money(90)};
  for (const DoubleAuctionProtocol* protocol : all_protocols()) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      const SingleUnitInstance instance = random_instance(seed, 4, 4);
      const DeviationEvaluator evaluator(*protocol, instance,
                                         {Side::kBuyer, 0});
      config.prune = true;
      const SearchResult pruned = find_best_deviation(evaluator, config);
      config.prune = false;
      const SearchResult unpruned = find_best_deviation(evaluator, config);
      expect_equivalent(pruned, unpruned,
                        protocol->name() + " seed=" + std::to_string(seed));
      EXPECT_EQ(unpruned.stats.pruned_by_bound, 0u);
      EXPECT_EQ(unpruned.stats.pruned_in_subtree, 0u);
      EXPECT_EQ(pruned.stats.strategies_evaluated +
                    pruned.stats.pruned_by_bound +
                    pruned.stats.pruned_in_subtree,
                pruned.stats.strategies_enumerated);
    }
  }
}

TEST(SearchEngineTest, StatsAreThreadInvariant) {
  const SingleUnitInstance instance = random_instance(7, 6, 6);
  static const TpdWithRebates rebates(money(50));
  const DeviationEvaluator evaluator(rebates, instance, {Side::kBuyer, 2});
  SearchConfig config;
  config.threads = 1;
  const SearchResult one = find_best_deviation(evaluator, config);
  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const SearchResult many = find_best_deviation(evaluator, config);
    EXPECT_EQ(many.stats.strategies_enumerated,
              one.stats.strategies_enumerated);
    EXPECT_EQ(many.stats.strategies_evaluated,
              one.stats.strategies_evaluated);
    EXPECT_EQ(many.stats.pruned_by_bound, one.stats.pruned_by_bound);
    EXPECT_EQ(many.stats.pruned_in_subtree, one.stats.pruned_in_subtree);
    EXPECT_EQ(many.stats.dedup_skipped, one.stats.dedup_skipped);
    EXPECT_EQ(many.stats.clears_performed, one.stats.clears_performed);
    EXPECT_EQ(many.stats.fast_positions, one.stats.fast_positions);
    EXPECT_EQ(many.stats.bound_slack_micros, one.stats.bound_slack_micros);
    EXPECT_EQ(many.stats.bound_slack_samples, one.stats.bound_slack_samples);
  }
}

TEST(SearchStatsTest, BoundSlackSumSaturatesAtInt64Max) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  SearchStats total;
  total.bound_slack_micros = kMax - 10;
  SearchStats part;
  part.bound_slack_micros = 7;
  total.merge_from(part);
  EXPECT_EQ(total.bound_slack_micros, kMax - 3);
  part.bound_slack_micros = kMax - 1;
  total.merge_from(part);
  EXPECT_EQ(total.bound_slack_micros, kMax);
  total.merge_from(part);
  EXPECT_EQ(total.bound_slack_micros, kMax);
}

TEST(SearchStatsTest, BoundSlackSaturatesOverAWideValueDomain) {
  // Values up to 2^60 micros: one leaf's slack is a sizeable fraction of
  // the int64 range (while any sum of two values still fits), so
  // thousands of leaves must pin the sum at the maximum instead of
  // wrapping it, on the serial and the block path.
  constexpr std::int64_t kTop = std::int64_t{1} << 60;
  constexpr std::int64_t kStep = std::int64_t{1} << 38;
  SingleUnitInstance instance;
  Rng rng(11);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto buyer = static_cast<std::int64_t>(rng.below(1u << 20));
    const auto seller = static_cast<std::int64_t>(rng.below(1u << 20));
    instance.buyer_values.push_back(
        Money::from_micros(kTop / 2 + buyer * kStep));
    instance.seller_values.push_back(Money::from_micros(seller * kStep));
  }
  instance.domain = ValueDomain{Money{}, Money::from_micros(kTop)};
  static const TpdProtocol tpd(Money::from_micros(kTop / 2));
  // A penalty above the price bracket keeps the utility bound usable.
  EvalConfig eval;
  eval.utility = UtilityModel(Money::from_micros(kTop));
  const DeviationEvaluator evaluator(tpd, instance, {Side::kBuyer, 0}, eval);
  for (const std::size_t threads : {1u, 4u}) {
    SearchConfig config;
    config.threads = threads;
    config.prune = false;  // evaluate (and sample) every leaf
    const SearchResult result = find_best_deviation(evaluator, config);
    EXPECT_GT(result.stats.bound_slack_samples, 1'000u);
    EXPECT_EQ(result.stats.bound_slack_micros,
              std::numeric_limits<std::int64_t>::max())
        << threads << " threads";
  }
}

TEST(SearchEngineTest, GridOverrideFixesTheCandidateSpace) {
  const SingleUnitInstance instance = random_instance(21, 5, 5);
  static const PmdProtocol pmd;
  const DeviationEvaluator evaluator(pmd, instance, {Side::kSeller, 0});
  SearchConfig config;
  config.grid_override = {money(25), money(75)};
  const SearchResult engine = find_best_deviation(evaluator, config);
  const SearchResult serial = find_best_deviation_serial(evaluator, config);
  expect_equivalent(engine, serial, "grid override");
  // 2 values x 2 sides = 4 symbols; absence + multisets of size <= 2:
  // 1 + 4 + C(5,2) = 15.
  EXPECT_EQ(engine.strategies_evaluated, 15u);
}

TEST(SearchEngineTest, MultiUnitEngineMatchesSerialShim) {
  static const TpdMultiUnitProtocol protocol(money(50));
  MultiUnitInstance instance;
  instance.buyer_schedules = {{money(80), money(60)}, {money(70), money(40)}};
  instance.seller_schedules = {{money(30), money(20)}, {money(45), money(35)}};
  const MultiDeviationEvaluator evaluator(protocol, instance,
                                          {Side::kBuyer, 0});
  const MultiSearchResult serial =
      find_best_multi_deviation(evaluator, MultiSearchConfig{});
  for (const std::size_t threads : {2u, 8u, 0u}) {
    MultiSearchConfig config;
    config.threads = threads;
    const MultiSearchResult parallel =
        find_best_multi_deviation(evaluator, config);
    EXPECT_EQ(parallel.truthful_utility, serial.truthful_utility);
    EXPECT_EQ(parallel.best_utility, serial.best_utility);
    EXPECT_EQ(parallel.best_strategy.declarations.size(),
              serial.best_strategy.declarations.size());
    EXPECT_EQ(parallel.strategies_evaluated, serial.strategies_evaluated);
  }
}

TEST(SearchEngineTest, AccountPositionMatchesFullClearEverywhere) {
  // The fast path must attribute exactly what clear_sorted attributes.
  // Cross-check by running the engine with pruning disabled (every
  // candidate priced, mostly via account_position) against the serial
  // path (every candidate priced via full clears) — already covered by
  // the oracle tests above, so here hammer larger books where rank
  // arithmetic has more edge cases.
  for (const DoubleAuctionProtocol* protocol : all_protocols()) {
    const SingleUnitInstance instance = random_instance(31, 9, 7);
    const DeviationEvaluator evaluator(*protocol, instance,
                                       {Side::kBuyer, 4});
    SearchConfig config;
    config.prune = false;
    config.grid_override = {money(15), money(45), money(55), money(85)};
    config.threads = 2;
    const SearchResult engine = find_best_deviation(evaluator, config);
    const SearchResult serial = find_best_deviation_serial(evaluator, config);
    expect_equivalent(engine, serial, protocol->name() + " 9x7");
  }
}

}  // namespace
}  // namespace fnda
