// Warm-start vs cold-start equivalence fuzz (ISSUE 9 satellite): under
// randomized book mutation sequences — inserts, erases, withdrawals —
// the cached-SearchState path must return bit-identical best responses
// to a fresh find_best_deviation_serial on the same book, at engine
// thread counts 1, 2, and 8.  This is the soundness contract of
// SearchConfig::warm_floor (strictly-below pruning seeded only with
// achieved, in-space utilities) exercised end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "mechanism/manipulation.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"

namespace fnda {
namespace {

Money money(std::int64_t units) { return Money::from_units(units); }

/// Ranked lane from a raw value list: buyers descending, sellers
/// ascending, ids positional (the evaluator re-numbers them anyway).
std::vector<BidEntry> lane(std::vector<Money> values, Side side) {
  if (side == Side::kBuyer) {
    std::sort(values.begin(), values.end(),
              [](Money a, Money b) { return a > b; });
  } else {
    std::sort(values.begin(), values.end());
  }
  std::vector<BidEntry> entries;
  entries.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    entries.push_back(BidEntry{BidId{i}, IdentityId{i}, values[i]});
  }
  return entries;
}

/// One random mutation: insert, erase, or no-op (the no-op rounds are
/// what exercises the tier-1 cache-hit/revalidation path).
void mutate(Rng& rng, std::vector<Money>& buyers,
            std::vector<Money>& sellers) {
  switch (rng.below(5)) {
    case 0:
      buyers.push_back(money(rng.uniform_int(1, 100)));
      break;
    case 1:
      sellers.push_back(money(rng.uniform_int(1, 100)));
      break;
    case 2:
      if (buyers.size() > 2) {
        buyers.erase(buyers.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(buyers.size())));
      }
      break;
    case 3:
      if (sellers.size() > 2) {
        sellers.erase(sellers.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(sellers.size())));
      }
      break;
    default:
      break;  // unchanged book: cached result must be reusable
  }
}

std::vector<Money> values_of(const std::vector<BidEntry>& lane) {
  std::vector<Money> values;
  for (const BidEntry& entry : lane) values.push_back(entry.value);
  return values;
}

bool same_result(const SearchResult& a, const SearchResult& b) {
  return a.best_utility == b.best_utility &&
         a.truthful_utility == b.truthful_utility &&
         a.best_strategy.declarations == b.best_strategy.declarations &&
         a.strategies_evaluated == b.strategies_evaluated &&
         a.truncated == b.truncated &&
         a.stats.strategies_evaluated == b.stats.strategies_evaluated;
}

/// Asks `warm_cache_hit` on a copy of `state` first, then runs
/// `find_best_deviation_warm` on `state` itself: both must agree on hit
/// or miss, on the result, and on the warm-hit/revalidation counters.
SearchResult warm_and_check_hit(const DeviationEvaluator& evaluator,
                                const SearchConfig& config,
                                SearchState& state) {
  SearchState probe = state;
  const auto& residual = evaluator.residual_rankings().front();
  const SearchResult* hit = warm_cache_hit(
      evaluator.protocol(), evaluator.instance().domain, evaluator.role(),
      evaluator.true_value(), values_of(residual.buyers),
      values_of(residual.sellers), evaluator.eval_config(), config, probe);
  const std::size_t hits_before = state.warm_hits;
  const SearchResult warm = find_best_deviation_warm(evaluator, config, state);
  EXPECT_EQ(hit != nullptr, state.warm_hits > hits_before);
  if (hit != nullptr) {
    EXPECT_TRUE(same_result(*hit, warm));
  }
  EXPECT_EQ(probe.warm_hits, state.warm_hits);
  EXPECT_EQ(probe.fast_revalidations, state.fast_revalidations);
  return warm;
}

void run_fuzz(const DoubleAuctionProtocol& protocol, std::size_t threads,
              std::size_t replicates, std::uint64_t seed,
              bool derived_grid = false) {
  const ValueDomain domain{money(0), money(100)};
  // True value deliberately off-grid: the truthful strategy must still be
  // a legal warm floor (it is base-evaluated, not enumerated).
  const Money true_value = money(57);
  const Side role = Side::kBuyer;

  SearchConfig config;
  config.max_declarations = 2;
  config.threads = threads;
  if (!derived_grid) {
    config.grid_override = {money(0),  money(20), money(40),
                            money(60), money(80), money(100)};
  }

  Rng rng(seed);
  std::vector<Money> buyers = {money(90), money(70), money(55), money(30)};
  std::vector<Money> sellers = {money(20), money(40), money(60), money(80)};
  SearchState state;

  for (std::size_t iter = 0; iter < 24; ++iter) {
    mutate(rng, buyers, sellers);
    EvalConfig eval;
    eval.seed = 0x5eed;
    eval.replicates = replicates;
    const DeviationEvaluator evaluator(protocol, domain, role, true_value,
                                       lane(buyers, Side::kBuyer),
                                       lane(sellers, Side::kSeller), eval);
    const SearchResult warm = warm_and_check_hit(evaluator, config, state);
    SearchConfig serial_config = config;
    serial_config.threads = 1;
    const SearchResult serial =
        find_best_deviation_serial(evaluator, serial_config);

    ASSERT_EQ(warm.best_utility, serial.best_utility)
        << "iter " << iter << " threads " << threads;
    ASSERT_EQ(warm.truthful_utility, serial.truthful_utility);
    ASSERT_EQ(warm.best_strategy.declarations,
              serial.best_strategy.declarations)
        << "iter " << iter << " threads " << threads;
    ASSERT_EQ(warm.strategies_evaluated, serial.strategies_evaluated);
  }
  // The mutation mix guarantees both warm tiers fired (no-op rounds hit
  // the cache; mutations run floor-seeded searches).
  EXPECT_GT(state.warm_hits, 0u);
  EXPECT_GT(state.warm_seeded, 0u);
  EXPECT_EQ(state.cold_runs, 1u);  // only the very first search is cold
  if (replicates == 1) {
    // TPD answers account_position, so every hit was revalidated on the
    // fast path.
    EXPECT_GE(state.fast_revalidations, state.warm_hits);
  }
}

TEST(WarmSearch, EquivalentToSerialUnderRandomMutationsThreads1) {
  run_fuzz(TpdProtocol(money(50)), 1, 1, 0xf00d1);
}

TEST(WarmSearch, EquivalentToSerialUnderRandomMutationsThreads2) {
  run_fuzz(TpdProtocol(money(50)), 2, 1, 0xf00d2);
}

TEST(WarmSearch, EquivalentToSerialUnderRandomMutationsThreads8) {
  run_fuzz(TpdProtocol(money(50)), 8, 1, 0xf00d8);
}

TEST(WarmSearch, EquivalentWithRebateProtocolAndReplicates) {
  // Replicates > 1 disables the O(log n) revalidation fast path; the
  // cache must fall back to a full evaluate and stay equivalent.
  run_fuzz(TpdWithRebates(money(50)), 2, 2, 0xcafe);
}

TEST(WarmSearch, CacheHitOnDerivedCandidateGrid) {
  // No grid_override: the hit must re-derive candidate_values from the
  // value lanes and compare it with the cached grid.
  for (const std::size_t threads : {1, 2, 8}) {
    run_fuzz(TpdProtocol(money(50)), threads, 1, 0xd1ce0 + threads,
             /*derived_grid=*/true);
  }
}

TEST(WarmSearch, FailedRevalidationFallsThroughToAFullSearch) {
  // Safety net: with lanes, grid and key all matching, a cached utility
  // that no longer reproduces must not be served.  The call runs a full
  // search instead, and that search equals a cold one.
  const TpdProtocol protocol(money(50));
  const ValueDomain domain{money(0), money(100)};
  const std::vector<BidEntry> buyers =
      lane({money(90), money(70), money(55), money(30)}, Side::kBuyer);
  const std::vector<BidEntry> sellers =
      lane({money(20), money(40), money(60), money(80)}, Side::kSeller);
  const DeviationEvaluator evaluator(protocol, domain, Side::kBuyer,
                                     money(57), buyers, sellers, EvalConfig{});
  SearchConfig config;
  config.max_declarations = 2;
  config.grid_override = {money(0),  money(20), money(40),
                          money(60), money(80), money(100)};
  const SearchResult cold = find_best_deviation(evaluator, config);

  SearchState state;
  find_best_deviation_warm(evaluator, config, state);
  state.last.best_utility += 1.0;  // the revalidation now disagrees

  SearchState probe = state;
  EXPECT_EQ(warm_cache_hit(protocol, domain, Side::kBuyer, money(57),
                           values_of(buyers), values_of(sellers),
                           EvalConfig{}, config, probe),
            nullptr);
  EXPECT_EQ(probe.warm_hits, 0u);
  EXPECT_EQ(probe.fast_revalidations, 1u);

  const SearchResult rerun = find_best_deviation_warm(evaluator, config, state);
  EXPECT_EQ(state.warm_hits, 0u);
  EXPECT_EQ(state.warm_seeded, 1u);
  EXPECT_EQ(rerun.best_utility, cold.best_utility);
  EXPECT_EQ(rerun.truthful_utility, cold.truthful_utility);
  EXPECT_EQ(rerun.best_strategy.declarations, cold.best_strategy.declarations);
  EXPECT_EQ(rerun.strategies_evaluated, cold.strategies_evaluated);

  // The search replaced the tampered entry, so the next call hits.
  find_best_deviation_warm(evaluator, config, state);
  EXPECT_EQ(state.warm_hits, 1u);
}

TEST(WarmSearch, WarmFloorNeverPrunesTheWinner) {
  // Directed check of the strict-inequality rule: seed the floor at
  // exactly the optimum's utility and require the identical first-
  // achiever to survive.
  const TpdProtocol protocol(money(50));
  const ValueDomain domain{money(0), money(100)};
  const std::vector<BidEntry> buyers =
      lane({money(90), money(70), money(30)}, Side::kBuyer);
  const std::vector<BidEntry> sellers =
      lane({money(20), money(40), money(80)}, Side::kSeller);
  const DeviationEvaluator evaluator(protocol, domain, Side::kBuyer,
                                     money(57), buyers, sellers, EvalConfig{});
  SearchConfig config;
  config.max_declarations = 2;
  config.grid_override = {money(0),  money(20), money(40),
                          money(60), money(80), money(100)};
  const SearchResult cold = find_best_deviation(evaluator, config);
  SearchConfig floored = config;
  floored.warm_floor = cold.best_utility;
  const SearchResult warm = find_best_deviation(evaluator, floored);
  EXPECT_EQ(warm.best_utility, cold.best_utility);
  EXPECT_EQ(warm.best_strategy.declarations, cold.best_strategy.declarations);
}

}  // namespace
}  // namespace fnda
