#include <gtest/gtest.h>

#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "sim/experiment.h"

namespace fnda {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.instances = 123;  // not a multiple of the block count
  config.seed = 99;
  return config;
}

TEST(ParallelExperimentTest, ThreadCountDoesNotChangeResults) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const InstanceGenerator gen = fixed_count_generator(10, 10);
  const ExperimentConfig config = small_config();

  const ComparisonResult one =
      run_comparison_parallel(gen, {&tpd, &pmd}, config, 1);
  const ComparisonResult four =
      run_comparison_parallel(gen, {&tpd, &pmd}, config, 4);
  const ComparisonResult many =
      run_comparison_parallel(gen, {&tpd, &pmd}, config, 16);

  EXPECT_EQ(one.pareto.count(), 123u);
  // Bit-identical across thread counts: fixed block partition + counter
  // seeding.
  EXPECT_DOUBLE_EQ(one.pareto.mean(), four.pareto.mean());
  EXPECT_DOUBLE_EQ(one.pareto.variance(), four.pareto.variance());
  EXPECT_DOUBLE_EQ(one.summary("tpd").total.mean(),
                   four.summary("tpd").total.mean());
  EXPECT_DOUBLE_EQ(four.summary("pmd").total.mean(),
                   many.summary("pmd").total.mean());
  EXPECT_DOUBLE_EQ(one.summary("tpd").auctioneer.sum(),
                   many.summary("tpd").auctioneer.sum());
}

TEST(ParallelExperimentTest, StatisticallyConsistentWithSequential) {
  // Different draw order, same distribution: means agree within a few
  // standard errors.
  const TpdProtocol tpd(money(50));
  const InstanceGenerator gen = fixed_count_generator(20, 20);
  ExperimentConfig config;
  config.instances = 800;
  config.seed = 7;
  const ComparisonResult sequential = run_comparison(gen, {&tpd}, config);
  const ComparisonResult parallel =
      run_comparison_parallel(gen, {&tpd}, config, 4);
  const double sem = sequential.summary("tpd").total.sem() +
                     parallel.summary("tpd").total.sem();
  EXPECT_NEAR(sequential.summary("tpd").total.mean(),
              parallel.summary("tpd").total.mean(), 5.0 * sem);
}

TEST(ParallelExperimentTest, TinyWorkloads) {
  const TpdProtocol tpd(money(50));
  const InstanceGenerator gen = fixed_count_generator(3, 3);
  ExperimentConfig config;
  config.instances = 1;
  const ComparisonResult result =
      run_comparison_parallel(gen, {&tpd}, config, 8);
  EXPECT_EQ(result.pareto.count(), 1u);

  config.instances = 0;
  const ComparisonResult empty =
      run_comparison_parallel(gen, {&tpd}, config, 8);
  EXPECT_EQ(empty.pareto.count(), 0u);
}

TEST(ParallelExperimentTest, WorkerExceptionsPropagate) {
  // A generator that throws on one specific counter-derived draw.
  const TpdProtocol tpd(money(50));
  const InstanceGenerator bomb(
      [](Rng& rng, SingleUnitInstance& instance) {
        if (rng.below(40) == 0) throw std::runtime_error("boom");
        instance.buyer_values = {money(9)};
        instance.seller_values = {money(2)};
      });
  ExperimentConfig config;
  config.instances = 200;
  EXPECT_THROW(run_comparison_parallel(bomb, {&tpd}, config, 4),
               std::runtime_error);
}

}  // namespace
}  // namespace fnda
