// Throughput-substrate behaviour: dead-lettering across re-attach,
// message conservation under a lossy/duplicating bus at scale,
// retained-round eviction, and the sharded multi-server exchange
// (including deterministic replay).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "market/bus.h"
#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

class Recorder : public Endpoint {
 public:
  void on_message(const Envelope& envelope) override {
    received.push_back(envelope);
  }
  std::vector<Envelope> received;
};

BusConfig quiet_bus() {
  BusConfig config;
  config.base_latency = SimTime{1000};
  config.jitter = SimTime{0};
  return config;
}

// Regression: a message in flight across a detach + re-attach must be
// dead-lettered, not delivered to the replacement endpoint (the slab
// makes stale deliveries cheap to create; the binding generation in the
// delivery key is what catches them).
TEST(MessageBusTest, ReattachDoesNotReceiveInFlight) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  Recorder old_endpoint;
  Recorder new_endpoint;
  const AddressId address = bus.attach("b", old_endpoint);
  bus.send("a", "b", RoundClosedMsg{});
  bus.detach("b");
  bus.attach(address, new_endpoint);
  queue.run();
  EXPECT_TRUE(old_endpoint.received.empty());
  EXPECT_TRUE(new_endpoint.received.empty());
  EXPECT_EQ(bus.stats().dead_lettered, 1u);

  // The replacement is live for traffic sent after the re-attach.
  bus.send("a", "b", RoundClosedMsg{});
  queue.run();
  EXPECT_EQ(new_endpoint.received.size(), 1u);
  EXPECT_EQ(bus.stats().dead_lettered, 1u);
}

// Conservation under stress: 1k endpoints, lossy + duplicating bus with
// jitter, and a slice of receivers detached while traffic is in flight.
// Every scheduled copy must be accounted for:
//   sent == delivered + dropped + dead_lettered - duplicated.
TEST(MessageBusTest, StressConservationHoldsAtScale) {
  constexpr std::size_t kClients = 1000;
  constexpr int kVolleys = 20;
  EventQueue queue;
  BusConfig config;
  config.base_latency = SimTime{1000};
  config.jitter = SimTime{500};
  config.drop_probability = 0.05;
  config.duplicate_probability = 0.05;
  MessageBus bus(queue, config, Rng(42));

  std::vector<std::unique_ptr<Recorder>> endpoints;
  std::vector<AddressId> addresses;
  const AddressId sender = bus.intern("sender");
  for (std::size_t i = 0; i < kClients; ++i) {
    endpoints.push_back(std::make_unique<Recorder>());
    addresses.push_back(
        bus.attach("client-" + std::to_string(i), *endpoints[i]));
  }

  for (int volley = 0; volley < kVolleys; ++volley) {
    for (std::size_t i = 0; i < kClients; ++i) {
      bus.send(sender, addresses[i], RoundOpenMsg{RoundId{1}, queue.now()});
    }
    if (volley == kVolleys / 2) {
      // Detach every tenth receiver mid-flight: their outstanding
      // deliveries dead-letter instead of reaching a stale endpoint.
      for (std::size_t i = 0; i < kClients; i += 10) {
        bus.detach(addresses[i]);
      }
    }
    queue.run();
  }

  const BusStats& stats = bus.stats();
  EXPECT_EQ(stats.sent, kClients * kVolleys);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.dead_lettered, 0u);
  EXPECT_EQ(stats.sent + stats.duplicated,
            stats.delivered + stats.dropped + stats.dead_lettered);

  std::size_t received = 0;
  for (const auto& endpoint : endpoints) received += endpoint->received.size();
  EXPECT_EQ(received, stats.delivered);
}

TEST(ServerTest, RetainedRoundsEvictsOldestCompletedRounds) {
  const TpdProtocol tpd(money(4.5));
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = 7;
  config.server.retained_rounds = 2;
  MultiServerExchange exchange(tpd, config);
  exchange.add_trader(Side::kBuyer, money(9));
  exchange.add_trader(Side::kSeller, money(2));

  std::vector<RoundId> rounds;
  for (int i = 0; i < 3; ++i) rounds.push_back(exchange.run_round()[0]);

  EXPECT_EQ(exchange.server(0).rounds_completed(), 3u);
  EXPECT_EQ(exchange.server(0).outcome_of(rounds[0]), nullptr)
      << "oldest round should have been evicted";
  EXPECT_FALSE(exchange.server(0).replay_round(rounds[0]).has_value());
  for (int i = 1; i < 3; ++i) {
    ASSERT_NE(exchange.server(0).outcome_of(rounds[i]), nullptr);
    EXPECT_NE(exchange.server(0).settlement_of(rounds[i]), nullptr);
  }
}

TEST(MultiServerExchangeTest, PartitionsTradersAcrossShards) {
  const TpdProtocol tpd(money(4.5));
  MultiExchangeConfig config;
  config.shards = 4;
  config.seed = 3;
  MultiServerExchange exchange(tpd, config);
  std::vector<std::size_t> population(config.shards, 0);
  for (int i = 0; i < 64; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    TradingClient& trader =
        exchange.add_trader(role, money(role == Side::kBuyer ? 90 : 2));
    const std::size_t shard = exchange.shard_of(trader.account());
    ASSERT_LT(shard, config.shards);
    EXPECT_EQ(shard, exchange.shard_of(trader.account()))
        << "shard assignment must be stable";
    ++population[shard];
  }
  for (std::size_t shard = 0; shard < config.shards; ++shard) {
    EXPECT_GT(population[shard], 0u)
        << "64 accounts should reach every one of 4 shards";
  }
}

TEST(MultiServerExchangeTest, RunsRoundsOnEveryShardAndSettles) {
  const TpdProtocol tpd(money(4.5));
  MultiExchangeConfig config;
  config.shards = 3;
  config.seed = 5;
  MultiServerExchange exchange(tpd, config);
  for (int i = 0; i < 24; ++i) {
    exchange.add_trader(Side::kBuyer, money(60 + i));
    exchange.add_trader(Side::kSeller, money(2 + i));
  }

  const std::vector<RoundId> rounds = exchange.run_round();
  ASSERT_EQ(rounds.size(), config.shards);
  EXPECT_EQ(exchange.rounds_completed(), config.shards);

  std::size_t trades = 0;
  for (std::size_t shard = 0; shard < config.shards; ++shard) {
    const Outcome* outcome = exchange.server(shard).outcome_of(rounds[shard]);
    ASSERT_NE(outcome, nullptr);
    trades += outcome->trade_count();
    // Audit replay of the stored book reproduces the stored outcome.
    const auto replayed = exchange.server(shard).replay_round(rounds[shard]);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->fills(), outcome->fills());
  }
  EXPECT_GT(trades, 0u) << "wide value spread should clear trades";

  const Money refunded = exchange.close_market();
  EXPECT_GE(refunded.micros(), 0);
}

// The sharded session is deterministic in its seed: equal seeds produce
// identical volumes and transport statistics, unequal seeds diverge.
TEST(ThroughputSessionTest, DeterministicInSeed) {
  const TpdProtocol tpd(money(50));
  ThroughputConfig config;
  config.clients = 200;
  config.rounds = 2;
  config.shards = 4;
  config.drop_probability = 0.02;
  config.duplicate_probability = 0.02;
  config.retained_rounds = 1;
  config.seed = 9;

  const ThroughputResult a = run_throughput_session(tpd, config);
  const ThroughputResult b = run_throughput_session(tpd, config);
  EXPECT_EQ(a.bids_accepted, b.bids_accepted);
  EXPECT_EQ(a.trades, b.trades);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.bus.sent, b.bus.sent);
  EXPECT_EQ(a.bus.delivered, b.bus.delivered);
  EXPECT_EQ(a.bus.dropped, b.bus.dropped);
  EXPECT_EQ(a.bus.duplicated, b.bus.duplicated);
  EXPECT_EQ(a.bus.dead_lettered, b.bus.dead_lettered);
  // Conservation holds for the full session too.
  EXPECT_EQ(a.bus.sent + a.bus.duplicated,
            a.bus.delivered + a.bus.dropped + a.bus.dead_lettered);

  config.seed = 10;
  const ThroughputResult c = run_throughput_session(tpd, config);
  EXPECT_NE(a.bus.sent, c.bus.sent);
}

}  // namespace
}  // namespace fnda
