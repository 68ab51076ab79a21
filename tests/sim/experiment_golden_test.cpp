// Golden pins for the Monte-Carlo runner: the bit pattern of every mean a
// ComparisonResult reports, folded into one FNV-1a digest per case.  The
// runner's scoring path may change how it draws, ranks, validates and
// clears an instance; it may not change a single bit of what it reports.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/vcg.h"
#include "sim/experiment.h"

namespace fnda {
namespace {

/// Folds the count and the mean bits of every accumulator, Pareto first,
/// then each protocol's total, except-auctioneer, auctioneer and trades.
std::uint64_t digest(const ComparisonResult& result) {
  std::uint64_t hash = kFnvOffsetBasis;
  auto fold = [&](const RunningStats& stats) {
    fnv1a_fold(hash, stats.count());
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(stats.mean()));
  };
  fold(result.pareto);
  fold(result.pareto_trades);
  for (const ProtocolSummary& summary : result.protocols) {
    fold(summary.total);
    fold(summary.except_auctioneer);
    fold(summary.auctioneer);
    fold(summary.trades);
  }
  return hash;
}

/// Every mean at full precision, for the failure message.
std::string describe(const ComparisonResult& result) {
  std::ostringstream os;
  os << std::setprecision(17) << "pareto " << result.pareto.mean() << " / "
     << result.pareto_trades.mean();
  for (const ProtocolSummary& summary : result.protocols) {
    os << "\n  " << summary.name << " " << summary.total.mean() << " "
       << summary.except_auctioneer.mean() << " "
       << summary.auctioneer.mean() << " " << summary.trades.mean();
  }
  return os.str();
}

/// The Table 1 line-up: the paper's TPD and PMD, the k-double auction,
/// the efficient and VCG references and the randomized-threshold
/// baseline.  The tie-dense line-up puts both thresholds inside its value
/// range, so they trade there.  Every mean is a function of the ranked
/// values, which the order of equal values cannot change; that order is
/// pinned entry for entry by RankTruthfulTest.
class ExperimentGoldenTest : public ::testing::Test {
 protected:
  const TpdProtocol tpd{money(50)};
  const PmdProtocol pmd;
  const KDoubleAuction kda{0.5};
  const EfficientClearing efficient;
  const VcgDoubleAuction vcg;
  const RandomThresholdProtocol lottery{money(50)};
  const std::vector<const DoubleAuctionProtocol*> protocols{
      &tpd, &pmd, &kda, &efficient, &vcg, &lottery};
  const TpdProtocol tie_tpd{Money::from_micros(10)};
  const RandomThresholdProtocol tie_lottery{Money::from_micros(10)};
  const std::vector<const DoubleAuctionProtocol*> tie_protocols{
      &tie_tpd, &pmd, &kda, &efficient, &vcg, &tie_lottery};

  static ExperimentConfig config() {
    ExperimentConfig config;
    config.instances = 300;
    config.seed = 7;
    config.validation.allow_deficit = true;  // VCG runs a deficit
    return config;
  }

  static std::string hex(std::uint64_t value) {
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
  }

  void expect_digest(const ComparisonResult& result, std::uint64_t golden) {
    EXPECT_EQ(hex(digest(result)), hex(golden)) << describe(result);
  }
};

/// Values in [0, 20] micro-units: 50 draws from 21 values, so every lane
/// holds equal values and footnote 5's random tie-break decides the order.
ValueDistribution tie_dense() {
  ValueDistribution values;
  values.low = Money::from_micros(0);
  values.high = Money::from_micros(20);
  return values;
}

TEST_F(ExperimentGoldenTest, Table1Sequential) {
  expect_digest(
      run_comparison(fixed_count_generator(50, 50), protocols, config()),
      0x66942fba9cb0add7);
}

TEST_F(ExperimentGoldenTest, Table1ParallelAtOneAndFourThreads) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    expect_digest(run_comparison_parallel(fixed_count_generator(50, 50),
                                          protocols, config(), threads),
                  0x94df06ad262887f1);
  }
}

TEST_F(ExperimentGoldenTest, Table2Binomial) {
  expect_digest(
      run_comparison(binomial_count_generator(100), protocols, config()),
      0xe5ac61456df7465f);
}

TEST_F(ExperimentGoldenTest, TieDenseSequentialAndParallel) {
  const InstanceGenerator generator =
      fixed_count_generator(50, 50, tie_dense());
  expect_digest(run_comparison(generator, tie_protocols, config()),
                0xe4f97d8383731977);
  expect_digest(run_comparison_parallel(generator, tie_protocols, config(), 4),
                0x38f080053e25f849);
}

TEST_F(ExperimentGoldenTest, LegacyPerProtocolSort) {
  ExperimentConfig legacy = config();
  legacy.shared_sort = false;
  expect_digest(
      run_comparison(fixed_count_generator(50, 50), protocols, legacy),
      0x6ac570e482fdf633);
}

}  // namespace
}  // namespace fnda
