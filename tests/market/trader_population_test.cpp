// Per-trader state of the exchange's trader population.
//
// The golden below folds everything a trader exposes — counters, every
// fill, every minted identity, and the reconstructed position — for a
// lossy, duplicating, retrying, heartbeating 4-shard session with one
// deferred multi-declaration attacker.  It was recorded while every
// trader was its own bus endpoint with a per-trader duplicate filter and
// ack set; the population must reproduce it at every thread count.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "market/multi_exchange.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

Money money(std::int64_t units) { return Money::from_units(units); }

constexpr std::uint64_t kPerTraderDigest = 0x72a69ce929ff2ea1ull;

std::uint64_t per_trader_digest(std::size_t threads) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = threads;
  config.seed = 99;
  config.bus.jitter = SimTime{700};
  config.bus.drop_probability = 0.05;
  config.bus.duplicate_probability = 0.05;
  config.client.retry_interval = SimTime::millis(5);
  config.client.max_retries = 4;
  config.server.domain = ValueDomain{money(0), money(100)};
  config.server.announce_interval = SimTime::millis(20);
  config.initial_cash = MultiServerExchange::zi_endowment(5, 3);
  MultiServerExchange exchange(tpd, config);

  exchange.add_zi_traders(96, 1, 100, 5);
  // A buyer that also fakes a seller and a second buyer — the latter
  // outside the value domain, so the server refuses it — submitting each
  // round only after the honest traffic has mostly cleared.
  TradingClient& attacker = exchange.add_trader(
      Side::kBuyer, money(70),
      Strategy{{Declaration{Side::kBuyer, money(70)},
                Declaration{Side::kSeller, money(45)},
                Declaration{Side::kBuyer, money(120)}}});
  attacker.set_deferred(true);
  exchange.add_zi_traders(31, 1, 100, 5);

  for (std::size_t r = 0; r < 5; ++r) {
    const std::vector<RoundId> rounds =
        exchange.open_rounds(SimTime::millis(100));
    std::vector<SimTime> bounds;
    for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
      bounds.push_back(*exchange.server(s).round_closes_at() -
                       SimTime::millis(30));
    }
    exchange.drive_until(bounds);
    EXPECT_EQ(attacker.submit_pending(), 3u);
    exchange.drive_to_quiescence();
    EXPECT_EQ(exchange.rounds_completed(), (r + 1) * exchange.shard_count());
  }

  // The session exercises every idempotence path the golden covers.
  const BusStats bus = exchange.bus_stats();
  EXPECT_GT(bus.dropped, 0u);
  EXPECT_GT(bus.duplicated, 0u);
  EXPECT_GT(attacker.settlement_failures(), 0u);
  std::size_t retransmissions = 0;
  std::size_t rejected = 0;
  for (const auto& trader : exchange.traders()) {
    retransmissions += trader->retransmissions();
    rejected += trader->bids_rejected();
  }
  EXPECT_GT(retransmissions, 0u);
  EXPECT_GT(rejected, 0u);

  std::uint64_t digest = kFnvOffsetBasis;
  for (const auto& trader : exchange.traders()) {
    fnv1a_fold(digest, trader->account().value());
    fnv1a_fold(digest, trader->bids_accepted());
    fnv1a_fold(digest, trader->bids_rejected());
    fnv1a_fold(digest, trader->retransmissions());
    fnv1a_fold(digest, trader->rounds_seen());
    fnv1a_fold(digest, trader->settlement_failures());
    fnv1a_fold(digest, trader->fills().size());
    for (const FillNoticeMsg& fill : trader->fills()) {
      fnv1a_fold(digest, fill.round.value());
      fnv1a_fold(digest, fill.identity.value());
      fnv1a_fold(digest, fill.side == Side::kBuyer ? 1 : 2);
      fnv1a_fold(digest, static_cast<std::uint64_t>(fill.price.micros()));
    }
    fnv1a_fold(digest, trader->identities().size());
    for (const IdentityId identity : trader->identities()) {
      fnv1a_fold(digest, identity.value());
    }
    const AccountPosition position = trader->position();
    fnv1a_fold(digest, position.bought);
    fnv1a_fold(digest, position.sold);
    fnv1a_fold(digest, static_cast<std::uint64_t>(position.paid.micros()));
    fnv1a_fold(digest,
               static_cast<std::uint64_t>(position.received.micros()));
  }
  return digest;
}

TEST(TraderPopulationTest, PerTraderStateMatchesRecordedDigest) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(per_trader_digest(threads), kPerTraderDigest)
        << "threads=" << threads << " digest=0x" << std::hex
        << per_trader_digest(threads);
  }
}

}  // namespace
}  // namespace fnda
