// Regression tests for the multi-threaded sharded exchange.
//
// The contract under test: the parallel engine's output is a pure
// function of (config, seed) — bit-identical for every worker-thread
// count, equal to the pre-change engines at equal seeds — and failure
// modes (throwing handlers, cross-shard sends) stay deterministic and
// propagate cleanly.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "market/address_space.h"
#include "market/epoch.h"
#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "protocols/tpd.h"
#include "timer_callbacks.h"

namespace fnda {
namespace {

Money money(std::int64_t units) { return Money::from_units(units); }

// ---------------------------------------------------------------------------
// Golden digests of the PRE-CHANGE shared-queue MultiServerExchange
// (captured from the engine as of the previous commit, seed 42, 4 shards,
// 120 traders, 3 rounds, jitter 0).  Identity *numbering* changed with
// per-shard strided registries, so the digest covers everything
// account-level and aggregate: trades, revenue, the fill price/side
// sequence, bus totals, audit counts, ledger totals, and the clock.

struct GoldenRound {
  std::size_t trades;
  std::int64_t revenue_micros;
  std::uint64_t price_hash;
};

constexpr GoldenRound kGoldenRounds[4] = {
    {10u, 260000000ll, 9284622164738206275ull},
    {11u, 44000000ll, 16415840471058883043ull},
    {7u, 238000000ll, 1969116543166298083ull},
    {13u, 52000000ll, 7248508972865565475ull},
};

MultiServerExchange make_golden_exchange(const TpdProtocol& tpd,
                                         std::size_t threads) {
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = threads;
  config.seed = 42;
  config.bus.base_latency = SimTime{1000};
  config.bus.jitter = SimTime{0};
  config.server.domain = ValueDomain{money(0), money(100)};
  MultiServerExchange exchange(tpd, config);
  for (std::size_t i = 0; i < 120; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value =
        money(role == Side::kBuyer
                  ? 40 + static_cast<std::int64_t>((i * 7) % 60)
                  : 1 + static_cast<std::int64_t>((i * 5) % 50));
    TradingClient& trader = exchange.add_trader(role, value);
    if (role == Side::kSeller) exchange.grant_goods(trader.account(), 2);
  }
  return exchange;
}

std::uint64_t fill_hash(const Outcome& outcome) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const Fill& fill : outcome.fills()) {
    hash ^= static_cast<std::uint64_t>(fill.price.micros()) * 31 +
            (fill.side == Side::kBuyer ? 17 : 71);
    hash *= 1099511628211ull;
  }
  return hash;
}

// The digest must hold for every worker count.
class GoldenDigestTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDigestTest, MatchesPreChangeEngine) {
  const std::size_t threads = GetParam();
  const TpdProtocol tpd(money(50));
  MultiServerExchange exchange = make_golden_exchange(tpd, threads);

  for (std::size_t r = 0; r < 3; ++r) {
    const std::vector<RoundId> rounds = exchange.run_round();
    for (std::size_t s = 0; s < 4; ++s) {
      const Outcome* outcome = exchange.server(s).outcome_of(rounds[s]);
      ASSERT_NE(outcome, nullptr) << "round " << r << " shard " << s;
      EXPECT_EQ(outcome->trade_count(), kGoldenRounds[s].trades);
      EXPECT_EQ(outcome->auctioneer_revenue().micros(),
                kGoldenRounds[s].revenue_micros);
      EXPECT_EQ(fill_hash(*outcome), kGoldenRounds[s].price_hash);
    }
  }

  // Epoch accounting over the 3 drives: each is one epoch and one join.
  const EpochStats& epochs = exchange.epoch_totals();
  EXPECT_EQ(epochs.epochs, 3u);
  EXPECT_EQ(epochs.barriers, 3u);
  EXPECT_EQ(epochs.widened, 0u);
  EXPECT_EQ(epochs.injected, 0u);

  std::size_t accepted = 0;
  for (const auto& trader : exchange.traders()) {
    accepted += trader->bids_accepted();
    EXPECT_EQ(trader->bids_rejected(), 0u);
  }
  EXPECT_EQ(accepted, 360u);

  const BusStats bus = exchange.bus_stats();
  EXPECT_EQ(bus.sent, 1686u);
  EXPECT_EQ(bus.delivered, 1686u);
  EXPECT_EQ(bus.duplicated, 0u);
  EXPECT_EQ(bus.dropped, 0u);
  EXPECT_EQ(bus.dead_lettered, 0u);
  EXPECT_EQ(bus.forwarded, 0u);  // account-hash routing is shard-local
  EXPECT_EQ(exchange.now(), SimTime{303000});

  EXPECT_EQ(exchange.merged_audit().size(), 507u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kRoundOpened), 12u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kBidAccepted), 360u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kRoundCleared), 12u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kDelivery), 123u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kDeliveryFailed), 0u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kDepositConfiscated), 0u);

  EXPECT_EQ(exchange.cash_balance(AccountId{0}), Money::from_micros(1782000000));
  EXPECT_EQ(exchange.cash_total(), Money::from_micros(120000000000ll));
  EXPECT_EQ(exchange.goods_total(), 180u);
  EXPECT_EQ(exchange.escrow_total_held(), Money::from_micros(3600000000ll));
  EXPECT_EQ(exchange.close_market(), Money::from_micros(3600000000ll));
}

// threads > shards exercises the clamp; the engine must not care.
INSTANTIATE_TEST_SUITE_P(ThreadCounts, GoldenDigestTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// ---------------------------------------------------------------------------
// Full bit-identity across thread counts, on a lossy/jittery bus so every
// RNG stream is consulted.  The digest is exhaustive: fill sequences with
// identity ids, the merged audit dump (exact strings, exact order),
// per-shard BusStats, and per-trader counters.

struct SessionDigest {
  std::vector<std::string> audit_dump;
  std::vector<std::tuple<std::uint64_t, std::int64_t, int>> fills;
  std::vector<std::size_t> shard_delivered;
  std::vector<std::size_t> shard_dead_lettered;
  std::vector<std::size_t> shard_dropped;
  std::vector<std::size_t> shard_sent;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t retransmissions = 0;
  std::int64_t exchange_cash = 0;
  std::int64_t refunded = 0;
  std::int64_t now = 0;

  bool operator==(const SessionDigest&) const = default;
};

SessionDigest run_lossy_session(std::size_t threads) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = threads;
  config.seed = 1234;
  config.bus.jitter = SimTime{500};
  config.bus.drop_probability = 0.02;
  config.bus.duplicate_probability = 0.02;
  config.client.retry_interval = SimTime::millis(20);
  config.server.domain = ValueDomain{money(0), money(100)};
  config.server.announce_interval = SimTime::millis(25);
  MultiServerExchange exchange(tpd, config);

  for (std::size_t i = 0; i < 160; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value =
        money(role == Side::kBuyer
                  ? 30 + static_cast<std::int64_t>((i * 11) % 70)
                  : 1 + static_cast<std::int64_t>((i * 13) % 60));
    TradingClient& trader = exchange.add_trader(role, value);
    if (role == Side::kSeller) exchange.grant_goods(trader.account(), 3);
  }

  SessionDigest digest;
  for (std::size_t r = 0; r < 4; ++r) {
    const std::vector<RoundId> rounds = exchange.run_round();
    for (std::size_t s = 0; s < rounds.size(); ++s) {
      if (const Outcome* outcome = exchange.server(s).outcome_of(rounds[s])) {
        for (const Fill& fill : outcome->fills()) {
          digest.fills.emplace_back(fill.identity.value(),
                                    fill.price.micros(),
                                    fill.side == Side::kBuyer ? 1 : 0);
        }
      }
    }
  }
  for (const AuditRecord& record : exchange.merged_audit()) {
    digest.audit_dump.push_back(
        std::to_string(record.at.micros) + "|" +
        std::to_string(record.round.value()) + "|" +
        to_string(record.kind()) + "|" + record.detail.str());
  }
  for (const BusStats& stats : exchange.shard_bus_stats()) {
    digest.shard_delivered.push_back(stats.delivered);
    digest.shard_dead_lettered.push_back(stats.dead_lettered);
    digest.shard_dropped.push_back(stats.dropped);
    digest.shard_sent.push_back(stats.sent);
  }
  for (const auto& trader : exchange.traders()) {
    digest.accepted += trader->bids_accepted();
    digest.rejected += trader->bids_rejected();
    digest.retransmissions += trader->retransmissions();
  }
  digest.exchange_cash = exchange.cash_balance(AccountId{0}).micros();
  digest.now = exchange.now().micros;
  digest.refunded = exchange.close_market().micros();

  // Merged conservation must hold no matter what the bus dropped/duped.
  const BusStats bus = exchange.bus_stats();
  EXPECT_EQ(bus.sent + bus.duplicated,
            bus.delivered + bus.dropped + bus.dead_lettered);
  EXPECT_GT(digest.accepted, 0u);
  return digest;
}

TEST(ParallelExchangeTest, LossySessionBitIdenticalAcrossThreadCounts) {
  const SessionDigest one = run_lossy_session(1);
  const SessionDigest two = run_lossy_session(2);
  const SessionDigest eight = run_lossy_session(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ParallelExchangeTest, ThroughputSessionIdenticalAcrossThreadCounts) {
  // The absolute values are golden: captured from the sort-at-close
  // engine before the incremental LiveBook replaced it.  The live path
  // must reproduce them bit for bit at every thread count.
  const TpdProtocol tpd(money(50));
  ThroughputConfig config;
  config.clients = 400;
  config.rounds = 3;
  config.shards = 4;
  config.jitter = SimTime{500};
  config.drop_probability = 0.01;
  config.seed = 7;

  ThroughputResult base;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const ThroughputResult result = run_throughput_session(tpd, config);

    EXPECT_EQ(result.bids_accepted, 1169u) << "threads=" << threads;
    EXPECT_EQ(result.trades, 291u) << "threads=" << threads;
    EXPECT_EQ(result.sim_time, SimTime{304493}) << "threads=" << threads;
    EXPECT_EQ(result.bus.sent, 5355u) << "threads=" << threads;
    EXPECT_EQ(result.bus.delivered, 5306u) << "threads=" << threads;
    EXPECT_EQ(result.bus.dropped, 49u) << "threads=" << threads;
    EXPECT_EQ(result.bus.duplicated, 0u) << "threads=" << threads;

    // The incremental engine inserted every server-accepted bid (more
    // than the client-side ack count: the lossy bus dropped 14 acks),
    // finalized each shard's round, and never sorted at close.
    EXPECT_EQ(result.book.inserts, 1183u);
    EXPECT_EQ(result.book.rounds_finalized,
              config.rounds * config.shards);
    EXPECT_EQ(result.book.sorts_at_close, 0u);

    if (threads == 1u) {
      base = result;
      continue;
    }
    EXPECT_EQ(result.book.entries_shifted, base.book.entries_shifted);
    EXPECT_EQ(result.book.chunk_splits, base.book.chunk_splits);
    EXPECT_EQ(result.book.tie_entries_permuted,
              base.book.tie_entries_permuted);
    ASSERT_EQ(result.shard_bus.size(), base.shard_bus.size());
    for (std::size_t s = 0; s < base.shard_bus.size(); ++s) {
      EXPECT_EQ(result.shard_bus[s].sent, base.shard_bus[s].sent);
      EXPECT_EQ(result.shard_bus[s].delivered, base.shard_bus[s].delivered);
    }
  }
}

// ---------------------------------------------------------------------------
// shards == 1 is the single-server call market.  Its output on a lossy,
// jittery bus — round ids, clock, bus counters, the audit dump before and
// after market close, and the refund total — is folded into one FNV-1a
// digest, recorded when a separate single-server exchange type still
// existed and matched it RNG draw for RNG draw.

constexpr std::uint64_t kSingleShardDigest = 0x531907b24dc32f94ull;

TEST(ParallelExchangeTest, SingleShardMatchesRecordedDigest) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 1;
  config.threads = 1;
  config.bus.jitter = SimTime{500};
  config.bus.drop_probability = 0.05;
  config.bus.duplicate_probability = 0.05;
  config.seed = 99;
  config.client.retry_interval = SimTime::millis(20);
  config.server.domain = ValueDomain{money(0), money(100)};
  MultiServerExchange exchange(tpd, config);

  for (std::size_t i = 0; i < 60; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value = money(role == Side::kBuyer
                                  ? 45 + static_cast<std::int64_t>(i % 50)
                                  : 1 + static_cast<std::int64_t>(i % 40));
    exchange.add_trader(role, value);
  }

  std::uint64_t digest = kFnvOffsetBasis;
  for (std::size_t r = 0; r < 3; ++r) {
    const std::vector<RoundId> rounds = exchange.run_round();
    ASSERT_EQ(rounds.size(), 1u);
    fnv1a_fold(digest, rounds[0].value());
  }
  fnv1a_fold(digest, static_cast<std::uint64_t>(exchange.now().micros));
  const BusStats bus = exchange.bus_stats();
  EXPECT_EQ(bus.forwarded, 0u);
  for (const std::size_t count : {bus.sent, bus.delivered, bus.duplicated,
                                  bus.dropped, bus.dead_lettered,
                                  bus.forwarded}) {
    fnv1a_fold(digest, count);
  }
  digest = fnv1a(exchange.audit(0).dump(), digest);
  fnv1a_fold(digest,
             static_cast<std::uint64_t>(exchange.close_market().micros()));
  digest = fnv1a(exchange.audit(0).dump(), digest);
  EXPECT_EQ(digest, kSingleShardDigest) << std::hex << "digest 0x" << digest;
}

// Market close refunds each shard's deposits in ascending identity order —
// a property of the escrow's dense slot order, not of any hash table.
TEST(ParallelExchangeTest, CloseMarketRefundsInAscendingIdentityOrderPerShard) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = 2;
  config.seed = 5;
  config.server.domain = ValueDomain{money(0), money(100)};
  MultiServerExchange exchange(tpd, config);
  for (std::size_t i = 0; i < 48; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    exchange.add_trader(role, money(role == Side::kBuyer
                                        ? 40 + static_cast<std::int64_t>(i)
                                        : 5 + static_cast<std::int64_t>(i)));
  }
  exchange.run_round();
  exchange.run_round();

  std::vector<std::size_t> holders;
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    holders.push_back(exchange.escrow(s).holder_count());
  }
  const Money held = exchange.escrow_total_held();
  const Money cash_before = exchange.cash_total();
  EXPECT_EQ(exchange.close_market(), held);
  EXPECT_EQ(exchange.escrow_total_held(), Money{});
  EXPECT_EQ(exchange.cash_total(), cash_before);

  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    std::vector<std::uint64_t> refunded_ids;
    for (const AuditRecord& record : exchange.audit(s).records()) {
      if (record.kind() != AuditKind::kDepositRefunded) continue;
      const std::string detail = record.detail.str();
      ASSERT_EQ(detail.rfind("id-", 0), 0u) << detail;
      refunded_ids.push_back(std::stoull(detail.substr(3)));
    }
    EXPECT_EQ(refunded_ids.size(), holders[s]) << "shard " << s;
    EXPECT_GT(refunded_ids.size(), 0u) << "shard " << s;
    EXPECT_TRUE(std::is_sorted(refunded_ids.begin(), refunded_ids.end()));
    EXPECT_EQ(std::adjacent_find(refunded_ids.begin(), refunded_ids.end()),
              refunded_ids.end());
    for (const std::uint64_t id : refunded_ids) {
      EXPECT_EQ(id % exchange.shard_count(), s);
    }
  }
}

// The console's `audit tail N` reads merged_audit_tail; it must equal the
// last N of the full merge, including its (time, shard, in-shard order)
// tie rule.  Jitter 0 makes every shard log records at the same instants.
TEST(ParallelExchangeTest, MergedAuditTailMatchesMergedAuditSuffix) {
  const TpdProtocol tpd(money(50));
  MultiServerExchange exchange = make_golden_exchange(tpd, 2);
  exchange.run_round();
  exchange.run_round();
  exchange.close_market();

  // Instants at which more than one shard logged: the tie rule matters.
  std::vector<std::pair<SimTime, std::size_t>> stamps;
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    for (const AuditRecord& record : exchange.audit(s).records()) {
      stamps.emplace_back(record.at, s);
    }
  }
  std::sort(stamps.begin(), stamps.end());
  stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  std::size_t shared_instants = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i].first == stamps[i - 1].first) ++shared_instants;
  }
  ASSERT_GT(shared_instants, 10u);

  const std::vector<AuditRecord> merged = exchange.merged_audit();

  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}, merged.size(),
        merged.size() + 3}) {
    const std::size_t take = std::min(n, merged.size());
    const std::vector<AuditRecord> expected(merged.end() - take, merged.end());
    EXPECT_EQ(exchange.merged_audit_tail(n), expected) << "n = " << n;
  }
}

// ---------------------------------------------------------------------------
// Two shard worlds as the exchange builds them: one event queue and one
// shard-local bus each, over one shared AddressSpace.

// Each shard's bus carries a test endpoint whose timers run closures.

struct ShardPair {
  AddressSpace addresses;
  EventQueue queue_a;
  EventQueue queue_b;
  MessageBus bus_a{queue_a, BusConfig{}, Rng(3), addresses, 0};
  MessageBus bus_b{queue_b, BusConfig{}, Rng(4), addresses, 1};
  TimerCallbacks timers_a;
  TimerCallbacks timers_b;
  AddressId timers_at_a = bus_a.attach("timers-a", timers_a);
  AddressId timers_at_b = bus_b.attach("timers-b", timers_b);

  void on_a(SimTime at, std::function<void()> callback) {
    timers_a.schedule(queue_a, at, std::move(callback), timers_at_a);
  }
  void on_b(SimTime at, std::function<void()> callback) {
    timers_b.schedule(queue_b, at, std::move(callback), timers_at_b);
  }

  EpochDriver driver(WorkerPool& pool) {
    return EpochDriver({&queue_a, &queue_b}, pool);
  }
};

struct FloodSource : Endpoint {
  void on_message(const Envelope&) override {}
};

// ---------------------------------------------------------------------------
// Failure handling: an exception inside a shard's event handler stops
// that shard at the throw and resurfaces on the driving thread, while the
// other shards finish the drive.  In a bounded drive the other shard runs
// up to its bound and not past it.

TEST(ParallelExchangeTest, WorkerExceptionPropagatesCleanly) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardPair pair;
    pair.on_a(SimTime{5}, [] { throw std::runtime_error("torn drive"); });
    bool failing_later_ran = false;
    pair.on_a(SimTime{6}, [&] { failing_later_ran = true; });
    bool other_ran = false;
    pair.on_b(SimTime{5}, [&] { other_ran = true; });
    bool other_later_ran = false;
    pair.on_b(SimTime{900}, [&] { other_later_ran = true; });
    // Beyond shard b's bound: never runs in this drive.
    bool late_ran = false;
    pair.on_b(SimTime::seconds(10), [&] { late_ran = true; });

    WorkerPool pool(threads);
    EpochDriver driver = pair.driver(pool);
    EXPECT_THROW(driver.drive_until({SimTime{1000}, SimTime{1000}}),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_FALSE(failing_later_ran) << "threads=" << threads;
    EXPECT_TRUE(other_ran) << "threads=" << threads;
    EXPECT_TRUE(other_later_ran) << "threads=" << threads;
    EXPECT_FALSE(late_ran) << "threads=" << threads;
  }
}

// Two failing shards: the lower shard's error is rethrown, even when the
// higher shard throws first in sim time.
TEST(ParallelExchangeTest, BoundedDriveRethrowsTheLowestShardsError) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardPair pair;
    pair.on_a(SimTime{50}, [] { throw std::runtime_error("shard 0"); });
    pair.on_b(SimTime{5}, [] { throw std::runtime_error("shard 1"); });

    WorkerPool pool(threads);
    EpochDriver driver = pair.driver(pool);
    try {
      driver.drive_until({SimTime{1000}, SimTime{1000}});
      ADD_FAILURE() << "drive did not throw, threads=" << threads;
    } catch (const std::exception& error) {
      EXPECT_STREQ(error.what(), "shard 0") << "threads=" << threads;
    }
  }
}

// An unbounded drive: the other shard runs all of its events, however
// late, while the failing shard stops at the throw and its later events
// never run.

TEST(ParallelExchangeTest, UnboundedWindowFailureStopsOnlyTheFailingShard) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardPair pair;
    pair.on_a(SimTime{5}, [] { throw std::runtime_error("torn epoch"); });
    bool failing_later_ran = false;
    pair.on_a(SimTime{6}, [&] { failing_later_ran = true; });
    bool other_ran = false;
    pair.on_b(SimTime{5}, [&] { other_ran = true; });
    bool other_late_ran = false;
    pair.on_b(SimTime::seconds(10), [&] { other_late_ran = true; });

    WorkerPool pool(threads);
    EpochDriver driver = pair.driver(pool);
    EXPECT_THROW(driver.drive(), std::runtime_error)
        << "threads=" << threads;
    EXPECT_FALSE(failing_later_ran) << "threads=" << threads;
    EXPECT_TRUE(other_ran) << "threads=" << threads;
    EXPECT_TRUE(other_late_ran) << "threads=" << threads;
  }
}

// Drive after a failed drive keeps working (errors are per-drive state).
TEST(ParallelExchangeTest, DriverRecoversAfterFailure) {
  ShardPair pair;
  pair.on_a(SimTime{1}, [] { throw std::logic_error("boom"); });
  WorkerPool pool(1);
  EpochDriver driver = pair.driver(pool);
  EXPECT_THROW(driver.drive(), std::logic_error);

  bool ran_a = false;
  bool ran_b = false;
  pair.on_a(SimTime{2}, [&] { ran_a = true; });
  pair.on_b(SimTime{2}, [&] { ran_b = true; });
  driver.drive();
  EXPECT_TRUE(ran_a);
  EXPECT_TRUE(ran_b);
}

// ---------------------------------------------------------------------------
// Epoch accounting: a drive is one pool join, so barrier crossings count
// drives exactly, and epochs count the drives that had work below their
// bounds — identical at every thread count.

TEST(ParallelExchangeTest, EpochStatsThreadInvariantOneBarrierPerDrive) {
  const TpdProtocol tpd(money(50));
  ThroughputConfig config;
  config.clients = 240;
  config.rounds = 3;
  config.shards = 4;
  config.seed = 5;

  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const ThroughputResult result = run_throughput_session(tpd, config);
    // One full drive per round.
    EXPECT_EQ(result.epoch.epochs, config.rounds) << "threads=" << threads;
    EXPECT_EQ(result.epoch.barriers, config.rounds) << "threads=" << threads;
    EXPECT_EQ(result.epoch.widened, 0u) << "threads=" << threads;
    EXPECT_EQ(result.epoch.injected, 0u) << "threads=" << threads;
  }
}

TEST(ParallelExchangeTest, BarriersCountDrivesExactly) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardPair pair;
    WorkerPool pool(threads);
    EpochDriver driver = pair.driver(pool);
    const auto expect_stats = [&](const EpochStats& stats,
                                  std::size_t epochs, const char* what) {
      EXPECT_EQ(stats.barriers, 1u) << what << " threads=" << threads;
      EXPECT_EQ(stats.epochs, epochs) << what << " threads=" << threads;
      EXPECT_EQ(stats.widened, 0u) << what << " threads=" << threads;
    };

    expect_stats(driver.drive(), 0, "empty drive");
    pair.on_a(SimTime{10}, [] {});
    pair.on_b(SimTime{2'000}, [] {});
    // Both heads are at or beyond their bounds: nothing to run.
    expect_stats(driver.drive_until({SimTime{10}, SimTime{500}}), 0,
                 "bounded drive, nothing below the bounds");
    expect_stats(driver.drive_until({SimTime{11}, SimTime{500}}), 1,
                 "bounded drive");
    expect_stats(driver.drive(), 1, "unbounded drive");
    expect_stats(driver.drive(), 0, "empty drive after quiescence");
  }
}

// drive_until runs each shard's events strictly before its own bound and
// leaves the rest queued for the next drive.
TEST(ParallelExchangeTest, BoundedDriveStopsEachShardBeforeItsOwnBound) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardPair pair;
    std::vector<std::int64_t> ran_a;
    std::vector<std::int64_t> ran_b;
    for (const std::int64_t t : {10, 99, 100, 101, 199, 200}) {
      pair.on_a(SimTime{t}, [&ran_a, t] { ran_a.push_back(t); });
      pair.on_b(SimTime{t}, [&ran_b, t] { ran_b.push_back(t); });
    }

    WorkerPool pool(threads);
    EpochDriver driver = pair.driver(pool);
    driver.drive_until({SimTime{100}, SimTime{200}});
    EXPECT_EQ(ran_a, (std::vector<std::int64_t>{10, 99}))
        << "threads=" << threads;
    EXPECT_EQ(ran_b, (std::vector<std::int64_t>{10, 99, 100, 101, 199}))
        << "threads=" << threads;
    EXPECT_EQ(pair.queue_a.pending(), 4u) << "threads=" << threads;
    EXPECT_EQ(pair.queue_b.pending(), 1u) << "threads=" << threads;

    driver.drive();
    EXPECT_EQ(ran_a, (std::vector<std::int64_t>{10, 99, 100, 101, 199, 200}))
        << "threads=" << threads;
    EXPECT_EQ(ran_b, ran_a) << "threads=" << threads;
  }
}

// The fixed-lookahead schedule is gone: asking for it is an error rather
// than a silently different drive.
TEST(ParallelExchangeTest, ExchangeRejectsFixedLookaheadSchedule) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.adaptive_epochs = false;
  EXPECT_THROW(MultiServerExchange(tpd, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard isolation is enforced, not trusted: a send to an address another
// shard owns throws at the sender — deterministically, on every thread
// count, naming both shards — instead of silently breaking shard
// independence.

TEST(ParallelExchangeTest, IsolatedTopologyRejectsCrossShardSends) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardPair pair;
    FloodSource source;
    FloodSource sink;
    const AddressId from = pair.bus_a.attach("source", source);
    const AddressId to = pair.bus_b.attach("sink", sink);
    pair.on_a(SimTime{1}, [&] {
      pair.bus_a.send(from, to, RoundOpenMsg{RoundId{0}, SimTime{1}});
    });

    WorkerPool pool(threads);
    EpochDriver driver = pair.driver(pool);
    try {
      driver.drive();
      ADD_FAILURE() << "cross-shard send did not throw, threads=" << threads;
    } catch (const std::logic_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("'sink'"), std::string::npos) << what;
      EXPECT_NE(what.find("owner shard 1"), std::string::npos) << what;
      EXPECT_NE(what.find("sender shard 0"), std::string::npos) << what;
    }
  }
}

// Same-shard traffic stays legal, and the whole drive is one epoch with
// one barrier crossing (the pool join), however far apart the events.

TEST(ParallelExchangeTest, IsolatedTopologyCollapsesToOneEpoch) {
  ShardPair pair;
  std::vector<std::int64_t> ran_a;
  std::vector<std::int64_t> ran_b;
  for (std::int64_t t = 10; t <= 50'010; t += 5'000) {
    pair.on_a(SimTime{t}, [&ran_a, t] { ran_a.push_back(t); });
    pair.on_b(SimTime{t + 3}, [&ran_b, t] { ran_b.push_back(t + 3); });
  }

  WorkerPool pool(2);
  EpochDriver driver = pair.driver(pool);
  const EpochStats stats = driver.drive();
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_EQ(ran_a.size(), 11u);
  EXPECT_EQ(ran_b.size(), 11u);
  EXPECT_TRUE(std::is_sorted(ran_a.begin(), ran_a.end()));
}

// ---------------------------------------------------------------------------
// Thread-count validation at the session layer: 0 resolves to hardware
// concurrency clamped to shards; the exchange reports what it ran with.

TEST(ParallelExchangeTest, ThreadZeroResolvesToHardwareClampedToShards) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 2;
  config.threads = 0;
  MultiServerExchange exchange(tpd, config);
  EXPECT_GE(exchange.thread_count(), 1u);
  EXPECT_LE(exchange.thread_count(), 2u);
}

}  // namespace
}  // namespace fnda
