// Contract tests for the sort-once clearing fast path:
//   * clear_sorted(SortedBook(book, rng)) must equal clear(book, rng) for
//     every protocol (the wrapper contract of DoubleAuctionProtocol),
//   * the incremental TPD sweep kernel must match TpdProtocol::clear
//     EXACTLY (fixed-point equality) threshold by threshold,
//   * run_comparison_parallel stays bit-identical across thread counts on
//     both the shared-sort and legacy paths,
//   * the legacy path and the shared path agree exactly on the
//     deterministic protocols' surplus means (the Table 1/2 numbers),
//   * validation failures inside worker threads still propagate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"
#include "sim/experiment.h"
#include "sim/threshold_search.h"

namespace fnda {
namespace {

/// Random book over integer values; `tie_heavy` draws from three values
/// only, so equal-value runs are long on both sides.
OrderBook random_book(Rng& rng, bool tie_heavy) {
  OrderBook book;
  const std::size_t buyers = rng.below(13);
  const std::size_t sellers = rng.below(13);
  auto draw = [&]() {
    if (tie_heavy) {
      return Money::from_units(30 + 20 * static_cast<std::int64_t>(rng.below(3)));
    }
    return Money::from_units(static_cast<std::int64_t>(rng.below(101)));
  };
  for (std::size_t i = 0; i < buyers; ++i) {
    book.add_buyer(IdentityId{i}, draw());
  }
  for (std::size_t j = 0; j < sellers; ++j) {
    book.add_seller(IdentityId{1000 + j}, draw());
  }
  return book;
}

void expect_same_outcome(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.fills(), b.fills());
  EXPECT_EQ(a.buyer_payments(), b.buyer_payments());
  EXPECT_EQ(a.seller_receipts(), b.seller_receipts());
  EXPECT_EQ(a.rebates_total(), b.rebates_total());
  for (const Fill& fill : a.fills()) {
    EXPECT_EQ(a.rebate_of(fill.identity), b.rebate_of(fill.identity));
  }
}

TEST(SharedSortTest, ClearSortedMatchesClearForEveryProtocol) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const EfficientClearing efficient;
  const RandomThresholdProtocol random_threshold(money(50));
  const KDoubleAuction kda(0.5);
  const VcgDoubleAuction vcg;
  const TpdWithRebates tpd_rebate(money(50));
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &efficient, &random_threshold, &kda, &vcg, &tpd_rebate};

  Rng book_rng(0xc0ffee);
  for (int trial = 0; trial < 40; ++trial) {
    const OrderBook book = random_book(book_rng, trial % 2 == 0);
    const std::uint64_t seed = book_rng();
    for (const DoubleAuctionProtocol* protocol : protocols) {
      Rng via_clear(seed);
      const Outcome a = protocol->clear(book, via_clear);

      Rng via_sorted(seed);
      const SortedBook sorted(book, via_sorted);
      const Outcome b = protocol->clear_sorted(sorted, via_sorted);

      SCOPED_TRACE(protocol->name());
      expect_same_outcome(a, b);
    }
  }
}

/// TPD surplus decomposition recomputed the slow way, straight from a
/// cleared Outcome and the book's declared values.
struct SlowTpd {
  Money total;
  Money auctioneer;
  std::size_t trades;
};

SlowTpd slow_tpd(const SortedBook& book, Money threshold) {
  std::unordered_map<BidId, Money> value_of;
  for (const BidEntry& e : book.buyers()) value_of.emplace(e.id, e.value);
  for (const BidEntry& e : book.sellers()) value_of.emplace(e.id, e.value);

  Rng unused(0);  // TPD draws nothing
  const Outcome outcome = TpdProtocol(threshold).clear_sorted(book, unused);
  SlowTpd result{Money{}, outcome.auctioneer_revenue(), outcome.trade_count()};
  for (const Fill& fill : outcome.fills()) {
    if (fill.side == Side::kBuyer) {
      result.total = result.total + value_of.at(fill.bid);
    } else {
      result.total = result.total - value_of.at(fill.bid);
    }
  }
  return result;
}

TEST(SweepKernelTest, MatchesTpdClearExactlyOnRandomBooks) {
  std::vector<Money> thresholds;
  for (int r = 0; r <= 100; r += 5) thresholds.push_back(money(r));
  thresholds.push_back(Money::from_double(49.5));  // off-grid, between values

  Rng rng(0x5eed5);
  for (int trial = 0; trial < 100; ++trial) {
    const bool tie_heavy = trial % 2 == 1;
    const OrderBook raw = random_book(rng, tie_heavy);
    const SortedBook book(raw, rng);

    const TpdSweepBook prepared(book);
    for (const Money r : thresholds) {
      const TpdThresholdOutcome swept = prepared.evaluate(r);
      const SlowTpd expected = slow_tpd(book, r);
      SCOPED_TRACE(testing::Message() << "trial " << trial << " threshold "
                                      << r.to_double());
      // Exact fixed-point equality, not approximate: the kernel and the
      // protocol must implement the same arithmetic.
      EXPECT_EQ(swept.trades, expected.trades);
      EXPECT_EQ(swept.total, expected.total);
      EXPECT_EQ(swept.auctioneer, expected.auctioneer);
    }
  }
}

/// Builds the truthful instance of the given unit values over a domain
/// wide enough for negative values.
SingleUnitInstance units_instance(const std::vector<std::int64_t>& buyers,
                                  const std::vector<std::int64_t>& sellers) {
  SingleUnitInstance instance;
  instance.domain = {Money::from_units(-1'000), Money::from_units(1'000)};
  for (const std::int64_t b : buyers) {
    instance.buyer_values.push_back(Money::from_units(b));
  }
  for (const std::int64_t s : sellers) {
    instance.seller_values.push_back(Money::from_units(s));
  }
  return instance;
}

/// `count` integer values drawn uniformly from [lo, hi].
std::vector<std::int64_t> uniform_units(Rng& rng, std::size_t count,
                                        std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> values;
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(
        lo + static_cast<std::int64_t>(
                 rng.below(static_cast<std::uint64_t>(hi - lo + 1))));
  }
  return values;
}

/// Both preparations of `instance` against TpdProtocol::clear_sorted at
/// every ranked value of both lanes, +-1 micro: the thresholds at which a
/// partition count, the efficient count k or the rank-(k + 1) test flips.
void expect_sweep_matches_clear_at_every_crossing(
    const SingleUnitInstance& instance, Rng& rng, const char* label) {
  const SortedBook book(instantiate_truthful(instance).book, rng);
  const TpdSweepBook from_instance(instance);
  const TpdSweepBook from_book(book);
  std::vector<std::int64_t> grid;
  for (const auto* lane : {&instance.buyer_values, &instance.seller_values}) {
    for (const Money value : *lane) {
      for (const std::int64_t delta : {-1, 0, 1}) {
        grid.push_back(value.micros() + delta);
      }
    }
  }
  for (const std::int64_t micros : grid) {
    const Money r = Money::from_micros(micros);
    const SlowTpd expected = slow_tpd(book, r);
    SCOPED_TRACE(testing::Message()
                 << label << " m=" << book.buyer_count()
                 << " n=" << book.seller_count()
                 << " k=" << book.efficient_trade_count() << " r=" << micros);
    for (const TpdSweepBook* prepared : {&from_instance, &from_book}) {
      const TpdThresholdOutcome got = prepared->evaluate(r);
      EXPECT_EQ(got.trades, expected.trades);
      EXPECT_EQ(got.total, expected.total);
      EXPECT_EQ(got.auctioneer, expected.auctioneer);
    }
  }
}

TEST(SweepKernelTest, MatchesTpdClearAtEveryCrossing) {
  // TPD trades at most k = efficient_trade_count() pairs, so the ranks
  // around k and k + 1 decide every outcome: probe them on books where k
  // is 0, where k is min(m, n), where one side is empty, where m != n,
  // where a tie run spans ranks k and k + 1, and where values are
  // negative.
  Rng rng(0xc2055);
  // Hand-made tie runs across ranks k and k + 1: in the buyers (k = 4),
  // in the sellers (k = 3), in the sellers at k = min(m, n) = 4, and a
  // book of one value.  Both lanes cannot tie there at once: b(k) =
  // b(k + 1) < s(k + 1) = s(k) would contradict b(k) >= s(k).
  struct TieBook {
    std::vector<std::int64_t> buyers;
    std::vector<std::int64_t> sellers;
    std::size_t k;
  };
  for (const TieBook& tie :
       {TieBook{{70, 60, 50, 50, 50, 40}, {30, 40, 50, 50, 55, 60}, 4},
        TieBook{{70, 60, 50, 45}, {30, 40, 50, 50, 50}, 3},
        TieBook{{80, 50, 50, 50}, {20, 50, 50, 50, 50}, 4},
        TieBook{{50, 50, 50}, {50, 50, 50}, 3}}) {
    const SingleUnitInstance instance = units_instance(tie.buyers, tie.sellers);
    ASSERT_EQ(SortedBook(instantiate_truthful(instance).book, rng)
                  .efficient_trade_count(),
              tie.k);
    expect_sweep_matches_clear_at_every_crossing(instance, rng, "tie run");
  }
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 1 + rng.below(12);
    const std::size_t n = 1 + rng.below(12);
    // k = 0: every buyer is below every seller.
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, m, 0, 40),
                       uniform_units(rng, n, 60, 100)),
        rng, "k=0");
    // k = min(m, n): every buyer is above every seller.
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, m, 60, 100),
                       uniform_units(rng, n, 0, 40)),
        rng, "k=min");
    // One empty side.
    expect_sweep_matches_clear_at_every_crossing(
        units_instance({}, uniform_units(rng, n, 0, 100)), rng, "no buyers");
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, m, 0, 100), {}), rng, "no sellers");
    // m != n.
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, 3, 0, 100),
                       uniform_units(rng, 40, 0, 100)),
        rng, "3x40");
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, 40, 0, 100),
                       uniform_units(rng, 3, 0, 100)),
        rng, "40x3");
    // Tie runs from three values, and negative values.
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, m, 4, 6),
                       uniform_units(rng, n, 4, 6)),
        rng, "ties");
    expect_sweep_matches_clear_at_every_crossing(
        units_instance(uniform_units(rng, m, -100, 0),
                       uniform_units(rng, n, -100, 0)),
        rng, "negative");
  }
}

enum class SweepShape { kRandom, kTieDense, kOutlierCluster, kNegative };

/// `count` values of `shape`; kOutlierCluster puts one value 1e6 units
/// away from a cluster 100 micros wide, so the rest share one bucket.
std::vector<Money> sweep_lane(SweepShape shape, std::size_t count, Rng& rng) {
  std::vector<Money> lane;
  for (std::size_t i = 0; i < count; ++i) {
    switch (shape) {
      case SweepShape::kRandom:
        lane.push_back(Money::from_micros(
            static_cast<std::int64_t>(rng.below(100'000'001))));
        break;
      case SweepShape::kTieDense:
        lane.push_back(
            Money::from_units(static_cast<std::int64_t>(rng.below(11))));
        break;
      case SweepShape::kOutlierCluster:
        lane.push_back(i == 0 ? Money::from_units(1'000'000)
                              : Money::from_micros(
                                    50'000'000 +
                                    static_cast<std::int64_t>(rng.below(101))));
        break;
      case SweepShape::kNegative:
        lane.push_back(Money::from_micros(
            -static_cast<std::int64_t>(rng.below(100'000'001))));
        break;
    }
  }
  return lane;
}

TEST(SweepKernelTest, InstanceAndSortedBookPreparationsAgree) {
  // TpdSweepBook(instance) ranks raw micros with the bucket kernel up to
  // 64 values and std::sort beyond; TpdSweepBook(SortedBook) copies the
  // SortedBook's ranking.  Every lane size 0-65 on each side, at every
  // threshold of a grid that includes each lane's endpoints +-1 micro.
  // Lanes spanning all of int64 stay in the rank oracles: the sweep
  // book's prefix sums and payments subtract values in int64, which
  // would overflow there.
  Rng rng(0xabcde);
  for (const SweepShape shape :
       {SweepShape::kRandom, SweepShape::kTieDense,
        SweepShape::kOutlierCluster, SweepShape::kNegative}) {
    for (std::size_t size = 0; size <= 65; ++size) {
      for (const std::size_t other : {size, std::size_t{65} - size}) {
        SingleUnitInstance instance;
        instance.domain = {Money::from_units(-1'000),
                           Money::from_units(1'000'000)};
        instance.buyer_values = sweep_lane(shape, size, rng);
        instance.seller_values = sweep_lane(shape, other, rng);
        const InstantiatedMarket market = instantiate_truthful(instance);
        const SortedBook sorted(market.book, rng);

        std::vector<std::int64_t> grid;
        for (int r = -100; r <= 100; r += 10) grid.push_back(money(r).micros());
        for (const auto* lane :
             {&instance.buyer_values, &instance.seller_values}) {
          if (lane->empty()) continue;
          const auto [lo, hi] = std::minmax_element(lane->begin(), lane->end());
          for (const std::int64_t endpoint : {lo->micros(), hi->micros()}) {
            for (const std::int64_t delta : {-1, 0, 1}) {
              grid.push_back(endpoint + delta);
            }
          }
        }

        const TpdSweepBook from_instance(instance);
        const TpdSweepBook from_book(sorted);
        for (const std::int64_t micros : grid) {
          const Money r = Money::from_micros(micros);
          const TpdThresholdOutcome a = from_instance.evaluate(r);
          const TpdThresholdOutcome b = from_book.evaluate(r);
          SCOPED_TRACE(testing::Message()
                       << "shape " << static_cast<int>(shape) << " m=" << size
                       << " n=" << other << " r=" << micros);
          EXPECT_EQ(a.trades, b.trades);
          EXPECT_EQ(a.total, b.total);
          EXPECT_EQ(a.auctioneer, b.auctioneer);
        }
      }
    }
  }
}

void expect_bit_identical(const ComparisonResult& a, const ComparisonResult& b,
                          const std::vector<std::string>& names) {
  EXPECT_DOUBLE_EQ(a.pareto.mean(), b.pareto.mean());
  EXPECT_DOUBLE_EQ(a.pareto.variance(), b.pareto.variance());
  for (const std::string& name : names) {
    EXPECT_DOUBLE_EQ(a.summary(name).total.mean(), b.summary(name).total.mean());
    EXPECT_DOUBLE_EQ(a.summary(name).total.variance(),
                     b.summary(name).total.variance());
    EXPECT_DOUBLE_EQ(a.summary(name).auctioneer.sum(),
                     b.summary(name).auctioneer.sum());
    EXPECT_DOUBLE_EQ(a.summary(name).trades.mean(),
                     b.summary(name).trades.mean());
  }
}

TEST(SharedSortTest, ParallelBitIdenticalAcrossThreadCounts) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const RandomThresholdProtocol random_threshold(money(50));
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &random_threshold};
  const InstanceGenerator gen = fixed_count_generator(15, 15);
  const std::vector<std::string> names = {"tpd", "pmd", "random-threshold"};

  for (const bool shared : {true, false}) {
    ExperimentConfig config;
    config.instances = 150;  // not a multiple of the block count
    config.seed = 42;
    config.shared_sort = shared;
    const ComparisonResult one =
        run_comparison_parallel(gen, protocols, config, 1);
    const ComparisonResult two =
        run_comparison_parallel(gen, protocols, config, 2);
    const ComparisonResult eight =
        run_comparison_parallel(gen, protocols, config, 8);
    SCOPED_TRACE(shared ? "shared-sort path" : "legacy path");
    EXPECT_EQ(one.pareto.count(), 150u);
    expect_bit_identical(one, two, names);
    expect_bit_identical(one, eight, names);
  }
}

TEST(SharedSortTest, LegacyPathMatchesSharedMeansForDeterministicProtocols) {
  // TPD/PMD/efficient surpluses are functions of the value ranking alone,
  // and both paths accumulate fills in rank order — so the per-instance
  // surplus sequences (and hence the Table 1/2 means) are EXACTLY equal,
  // not merely statistically close.
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const EfficientClearing efficient;
  const std::vector<const DoubleAuctionProtocol*> protocols = {&tpd, &pmd,
                                                               &efficient};
  const InstanceGenerator gen = fixed_count_generator(20, 20);

  ExperimentConfig shared;
  shared.instances = 400;
  shared.seed = 20010416;
  shared.shared_sort = true;
  ExperimentConfig legacy = shared;
  legacy.shared_sort = false;

  const ComparisonResult a = run_comparison(gen, protocols, shared);
  const ComparisonResult b = run_comparison(gen, protocols, legacy);
  for (const std::string name : {"tpd", "pmd", "efficient"}) {
    EXPECT_DOUBLE_EQ(a.summary(name).total.mean(), b.summary(name).total.mean())
        << name;
    EXPECT_DOUBLE_EQ(a.summary(name).except_auctioneer.mean(),
                     b.summary(name).except_auctioneer.mean())
        << name;
    EXPECT_DOUBLE_EQ(a.summary(name).trades.mean(), b.summary(name).trades.mean())
        << name;
  }
  EXPECT_DOUBLE_EQ(a.pareto.mean(), b.pareto.mean());
}

/// Deliberately broken protocol: reports a buy fill with no matching sell
/// fill, which expect_valid_outcome rejects.
class UnbalancedProtocol final : public DoubleAuctionProtocol {
 public:
  std::string name() const override { return "unbalanced"; }

 private:
  void fill(const SortedBook& book, Rng&, Outcome& outcome) const override {
    if (book.buyer_count() > 0) {
      const BidEntry& top = book.buyer(1);
      outcome.add_buy(top.id, top.identity, top.value);
    }
  }
};

TEST(SharedSortTest, ValidationFailureInsideWorkerPropagates) {
  const UnbalancedProtocol bad;
  const InstanceGenerator gen = fixed_count_generator(5, 5);
  ExperimentConfig config;
  config.instances = 64;
  ASSERT_TRUE(config.validate);  // validation is on by default
  EXPECT_THROW(run_comparison_parallel(gen, {&bad}, config, 4),
               std::logic_error);
  EXPECT_THROW(run_comparison(gen, {&bad}, config), std::logic_error);
}

}  // namespace
}  // namespace fnda
