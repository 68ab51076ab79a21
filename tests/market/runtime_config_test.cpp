// RuntimeConfig: typed staging of a whole ServerConfig, promoted only by
// apply_pending, with a generation that moves only when a value changes;
// and the exchange applying it at open_rounds and nowhere else.
#include "market/runtime_config.h"

#include <gtest/gtest.h>

#include "market/multi_exchange.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

TEST(RuntimeConfigTest, StagingTheSameFieldTwiceKeepsTheLastValue) {
  RuntimeConfig runtime{ServerConfig{}};
  ServerConfig next = runtime.staged();
  next.retained_rounds = 5;
  runtime.stage(next);
  next = runtime.staged();
  next.retained_rounds = 7;
  runtime.stage(next);
  EXPECT_EQ(runtime.active().retained_rounds, 0u);
  EXPECT_EQ(runtime.staged().retained_rounds, 7u);

  EXPECT_TRUE(runtime.apply_pending(4));
  EXPECT_EQ(runtime.active().retained_rounds, 7u);
  EXPECT_EQ(runtime.generation(), 1u);
  EXPECT_EQ(runtime.applied_at(), 4u);
  EXPECT_FALSE(runtime.has_pending());
  EXPECT_FALSE(runtime.apply_pending(5));
  EXPECT_EQ(runtime.generation(), 1u);
}

TEST(RuntimeConfigTest, StagingTheActiveValueAppliesWithoutANewGeneration) {
  RuntimeConfig runtime{ServerConfig{}};
  runtime.stage(runtime.active());
  EXPECT_TRUE(runtime.has_pending());
  EXPECT_FALSE(runtime.apply_pending(3));
  EXPECT_FALSE(runtime.has_pending());
  EXPECT_EQ(runtime.generation(), 0u);
  EXPECT_EQ(runtime.applied_at(), 0u);

  // A change staged and then staged back is no change either.
  ServerConfig next = runtime.staged();
  next.min_deposit = Money::from_units(20);
  runtime.stage(next);
  next.min_deposit = runtime.active().min_deposit;
  runtime.stage(next);
  EXPECT_FALSE(runtime.apply_pending(4));
  EXPECT_EQ(runtime.generation(), 0u);
}

TEST(RuntimeConfigTest, ServersSeeAChangeOnlyAtTheNextOpenRounds) {
  const TpdProtocol tpd(Money::from_units(50));
  MultiExchangeConfig config;
  config.shards = 2;
  MultiServerExchange exchange(tpd, config);
  exchange.add_zi_traders(8, 0, 100, 4);
  exchange.run_round(SimTime::millis(100));

  RuntimeConfig& runtime = exchange.runtime_config();
  ServerConfig next = runtime.staged();
  next.announce_interval = SimTime::millis(5);
  runtime.stage(next);
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    EXPECT_EQ(exchange.server(s).config().announce_interval, SimTime{0});
  }
  EXPECT_EQ(runtime.generation(), 0u);

  exchange.open_rounds(SimTime::millis(100));
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    EXPECT_EQ(exchange.server(s).config().announce_interval,
              SimTime::millis(5));
  }
  EXPECT_EQ(runtime.generation(), 1u);
  EXPECT_EQ(runtime.applied_at(), 1u);  // the second open_rounds call
  exchange.drive_to_quiescence();
}

}  // namespace
}  // namespace fnda
