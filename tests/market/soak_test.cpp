// Soak test: a long trading day combining every moving part — adaptive
// threshold re-tuning between rounds, a standing false-name attacker, a
// lossy and duplicating bus with client retries and server heartbeats —
// with the full invariant set checked after every round.
#include <gtest/gtest.h>

#include "core/surplus.h"
#include "market/multi_exchange.h"
#include "protocols/tpd.h"
#include "sim/adaptive_threshold.h"

namespace fnda {
namespace {

TEST(SoakTest, ThirtyRoundAdaptiveDayUnderAttackAndLoss) {
  AdaptiveThresholdPolicy policy(money(20), 0.3);
  std::size_t confiscations = 0;
  double attacker_total_utility = 0.0;

  Rng population(0x50a6);
  for (int session = 0; session < 30; ++session) {
    // One exchange per session: fresh traders, same value distribution.
    TpdProtocol protocol(policy.current());
    MultiExchangeConfig config;
    config.shards = 1;
    config.seed = 7000 + static_cast<std::uint64_t>(session);
    config.bus.drop_probability = 0.15;
    config.bus.duplicate_probability = 0.15;
    config.client.retry_interval = SimTime::millis(5);
    config.client.max_retries = 5;
    config.server.announce_interval = SimTime::millis(10);
    MultiServerExchange exchange(protocol, config);

    for (int i = 0; i < 12; ++i) {
      exchange.add_trader(Side::kBuyer,
                          population.uniform_money(money(20), money(100)));
      exchange.add_trader(Side::kSeller,
                          population.uniform_money(money(20), money(100)));
    }
    // A standing attacker: buyer who also fires a fake seller bid.
    TradingClient& attacker =
        exchange.add_trader(Side::kBuyer, money(70));
    Strategy attack;
    attack.declarations = {Declaration{Side::kBuyer, money(70)},
                           Declaration{Side::kSeller, money(30)}};
    attacker.set_strategy(attack);

    const std::size_t goods_before = exchange.goods(0).total();
    const Money cash_before = exchange.cash(0).total();

    const RoundId round = exchange.run_round(SimTime::millis(80))[0];

    // Invariants after every session.
    ASSERT_NE(exchange.server(0).outcome_of(round), nullptr);
    EXPECT_EQ(exchange.goods(0).total(), goods_before);
    EXPECT_EQ(exchange.cash(0).total(), cash_before);
    const auto replayed = exchange.server(0).replay_round(round);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->fills(),
              exchange.server(0).outcome_of(round)->fills());

    const SettlementReport* settlement =
        exchange.server(0).settlement_of(round);
    ASSERT_NE(settlement, nullptr);
    confiscations += settlement->failed;
    attacker_total_utility += exchange.settled_utility(attacker);

    exchange.close_market();
    EXPECT_EQ(exchange.escrow(0).total_held(), Money{});

    // Adapt from the session's true valuations (== declared, by
    // dominance) for the next session.
    OrderBook observed;
    for (const auto& trader : exchange.traders()) {
      observed.add(trader->role(), IdentityId{trader->account().value()},
                   trader->true_value());
    }
    Rng sort_rng(static_cast<std::uint64_t>(session));
    const SortedBook sorted(observed, sort_rng);
    policy.observe(sorted);
  }

  // The policy converged into the distribution's clearing region.
  EXPECT_NEAR(policy.current().to_double(), 60.0, 12.0);
  // The attacker's fake seller bids were repeatedly caught and punished:
  // across 30 sessions its cumulative settled utility is deeply negative.
  EXPECT_GT(confiscations, 5u);
  EXPECT_LT(attacker_total_utility, 0.0);
}

}  // namespace
}  // namespace fnda
