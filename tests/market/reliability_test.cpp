// Reliability features: idempotent bid resubmission at the server and
// at-least-once client retransmission over a lossy bus, plus the
// market-close refund sweep.
#include <gtest/gtest.h>

#include "market/multi_exchange.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

TEST(ReliabilityTest, RetryRecoversFromHeavyLoss) {
  // 40% drop, retries on: with up to 6 retransmissions per bid spaced
  // well inside the round, every bid should land with overwhelming
  // probability (miss chance 0.4^7 ~ 0.16%).
  const TpdProtocol tpd(money(4.5));
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = 11;
  config.bus.drop_probability = 0.4;
  config.client.retry_interval = SimTime::millis(5);
  config.client.max_retries = 6;
  config.server.announce_interval = SimTime::millis(10);
  MultiServerExchange exchange(tpd, config);
  exchange.add_trader(Side::kBuyer, money(9));
  exchange.add_trader(Side::kBuyer, money(7));
  exchange.add_trader(Side::kSeller, money(2));
  exchange.add_trader(Side::kSeller, money(3));

  const RoundId round = exchange.run_round(SimTime::millis(100))[0];
  const Outcome* outcome = exchange.server(0).outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->trade_count(), 2u);

  std::size_t retransmissions = 0;
  for (const auto& trader : exchange.traders()) {
    retransmissions += trader->retransmissions();
  }
  EXPECT_GT(retransmissions, 0u) << "40% loss should force retries";
}

TEST(ReliabilityTest, WithoutRetriesLossDropsBids) {
  const TpdProtocol tpd(money(4.5));
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = 13;
  config.bus.drop_probability = 0.5;
  MultiServerExchange exchange(tpd, config);
  for (int i = 0; i < 6; ++i) {
    exchange.add_trader(Side::kBuyer, money(90));
    exchange.add_trader(Side::kSeller, money(2));
  }
  const RoundId round = exchange.run_round()[0];
  // With 50% loss and no retries, it is overwhelmingly unlikely that all
  // 12 bids arrive.
  const auto* outcome = exchange.server(0).outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  std::size_t accepted = 0;
  for (const auto& trader : exchange.traders()) {
    accepted += trader->bids_accepted();
  }
  EXPECT_LT(accepted, 12u);
}

TEST(ReliabilityTest, DuplicatedTransportDoesNotDoubleCount) {
  const TpdProtocol tpd(money(4.5));
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = 17;
  config.bus.duplicate_probability = 1.0;  // every message duplicated
  MultiServerExchange exchange(tpd, config);
  TradingClient& buyer = exchange.add_trader(Side::kBuyer, money(9));
  TradingClient& seller = exchange.add_trader(Side::kSeller, money(2));

  const RoundId round = exchange.run_round()[0];
  const Outcome* outcome = exchange.server(0).outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->trade_count(), 1u);
  // Client-side dedup: one ack, one fill each despite duplication.
  EXPECT_EQ(buyer.bids_accepted(), 1u);
  EXPECT_EQ(buyer.fills().size(), 1u);
  EXPECT_EQ(seller.fills().size(), 1u);
  EXPECT_EQ(exchange.audit(0).count(AuditKind::kBidAccepted), 2u);
}

TEST(ReliabilityTest, RetryWithLossAndDuplicationStaysExactlyOnce) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = 19;
  config.bus.drop_probability = 0.25;
  config.bus.duplicate_probability = 0.25;
  config.client.retry_interval = SimTime::millis(4);
  config.client.max_retries = 8;
  config.server.announce_interval = SimTime::millis(10);
  MultiServerExchange exchange(tpd, config);
  for (int i = 0; i < 5; ++i) {
    exchange.add_trader(Side::kBuyer, money(80));
    exchange.add_trader(Side::kSeller, money(10));
  }
  const RoundId round = exchange.run_round(SimTime::millis(120))[0];
  const Outcome* outcome = exchange.server(0).outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  // Every identity bid at most once in the book despite retransmissions
  // and duplicates: trade count is exactly min(buyers, sellers) = 5.
  EXPECT_EQ(outcome->trade_count(), 5u);
  EXPECT_EQ(exchange.audit(0).count(AuditKind::kBidRejected), 0u);
}

TEST(ReliabilityTest, CloseMarketRefundsAllRemainingDeposits) {
  const TpdProtocol tpd(money(4.5));
  MultiServerExchange exchange(tpd, {.shards = 1});
  TradingClient& buyer = exchange.add_trader(Side::kBuyer, money(9));
  TradingClient& seller = exchange.add_trader(Side::kSeller, money(2));
  exchange.run_round();

  EXPECT_GT(exchange.escrow(0).total_held(), Money{});
  const Money refunded = exchange.close_market();
  EXPECT_EQ(refunded, money(20));  // two identities x 10
  EXPECT_EQ(exchange.escrow(0).total_held(), Money{});
  // Deposits are back in the owners' spendable cash.
  EXPECT_EQ(exchange.cash(0).balance(buyer.account()),
            money(1000 - 4.5));
  EXPECT_EQ(exchange.cash(0).balance(seller.account()),
            money(1000 + 4.5));
  EXPECT_EQ(exchange.audit(0).count(AuditKind::kDepositRefunded), 2u);
}

TEST(ReliabilityTest, CloseMarketSkipsConfiscatedDeposits) {
  const TpdProtocol tpd(money(4.5));
  MultiServerExchange exchange(tpd, {.shards = 1});
  exchange.add_trader(Side::kSeller, money(2));
  exchange.add_trader(Side::kBuyer, money(9));
  TradingClient& attacker = exchange.add_trader(Side::kBuyer, money(7));
  Strategy attack;
  attack.declarations = {Declaration{Side::kBuyer, money(7)},
                         Declaration{Side::kSeller, money(3)}};
  attacker.set_strategy(attack);
  exchange.run_round();
  ASSERT_EQ(exchange.audit(0).count(AuditKind::kDepositConfiscated), 1u);

  // 4 identities posted 10 each; 1 was confiscated -> 30 refunded.
  EXPECT_EQ(exchange.close_market(), money(30));
}

TEST(ReliabilityTest, CloseMarketRefusesWhileRoundOpen) {
  const TpdProtocol tpd(money(4.5));
  MultiServerExchange exchange(tpd, {.shards = 1});
  exchange.add_trader(Side::kBuyer, money(9));
  exchange.server(0).open_round(SimTime::millis(50));
  EXPECT_THROW(exchange.close_market(), std::logic_error);
  exchange.queue(0).run();  // drain so teardown is clean
}

}  // namespace
}  // namespace fnda
