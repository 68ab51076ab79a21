// Adversarial co-simulation determinism (ISSUE 9 tentpole): the exchange
// output — fills, positions, ledgers, folded into LiveAttackResult's
// digest — must be bit-identical for every exchange thread count AND
// every background search-pool size, with the co-simulation enabled.
// Attack bids computed from round r inject in round r+1 through the
// normal submission path, sequenced in account order, so the staleness
// contract never leaks wall-clock nondeterminism into the market.
#include "market/attack_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "market/live_attack.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

constexpr std::uint64_t kPinnedDigest = 0x8ab1d6174c41ac58ull;

LiveAttackConfig small_session(std::size_t threads, std::size_t pool) {
  LiveAttackConfig config;
  config.honest = 60;
  config.attackers = 6;
  config.rounds = 4;
  config.shards = 2;
  config.threads = threads;
  config.search_threads = pool;
  config.grid_points = 5;
  config.max_declarations = 2;
  config.seed = 7;
  config.telemetry.enabled = false;
  return config;
}

TEST(AttackSchedulerDeterminism, OutputBitIdenticalAcrossThreadCounts) {
  const TpdProtocol tpd(Money::from_units(50));
  const LiveAttackResult one =
      run_live_attack_session(tpd, small_session(1, 1));
  const LiveAttackResult two =
      run_live_attack_session(tpd, small_session(2, 2));
  const LiveAttackResult eight =
      run_live_attack_session(tpd, small_session(8, 8));

  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.trades, two.trades);
  EXPECT_EQ(one.trades, eight.trades);
  EXPECT_EQ(one.bids_accepted, two.bids_accepted);
  EXPECT_EQ(one.bids_accepted, eight.bids_accepted);
  EXPECT_EQ(one.attack.searches, eight.attack.searches);
  EXPECT_EQ(one.attack.warm_hits, eight.attack.warm_hits);
  EXPECT_EQ(one.planned_gain_total, eight.planned_gain_total);
  EXPECT_EQ(one.efficiency_ratio, eight.efficiency_ratio);

  // Golden digest of the co-simulated exchange output.  Re-pin on an
  // intentional market/search change, with justification.
  EXPECT_EQ(one.digest, kPinnedDigest) << "digest: " << std::hex << one.digest;
}

TEST(AttackSchedulerDeterminism, SearchPoolSizeDoesNotChangeOutput) {
  // Same exchange threads, different pool fan-out: the planning results
  // are per-account deterministic, so only wall time may differ.
  const TpdProtocol tpd(Money::from_units(50));
  const LiveAttackResult narrow =
      run_live_attack_session(tpd, small_session(2, 1));
  EXPECT_EQ(narrow.digest, kPinnedDigest);
  for (const std::size_t pool : {2, 8}) {
    const LiveAttackResult wide =
        run_live_attack_session(tpd, small_session(2, pool));
    EXPECT_EQ(wide.digest, kPinnedDigest)
        << "pool " << pool << " digest " << std::hex << wide.digest;
    EXPECT_EQ(narrow.attack.searches, wide.attack.searches);
    EXPECT_EQ(narrow.attack.warm_hits, wide.attack.warm_hits);
    EXPECT_EQ(narrow.planned_gain_total, wide.planned_gain_total);
  }
}

TEST(AttackSchedulerDeterminism, WarmAndColdSearchesAgreeOnOutput) {
  // Warm-start is a pure accelerator: disabling it must reproduce the
  // exchange output bit for bit (only coverage/latency counters differ).
  const TpdProtocol tpd(Money::from_units(50));
  LiveAttackConfig cold_config = small_session(1, 2);
  cold_config.warm = false;
  const LiveAttackResult warm =
      run_live_attack_session(tpd, small_session(1, 2));
  const LiveAttackResult cold = run_live_attack_session(tpd, cold_config);
  EXPECT_EQ(warm.digest, cold.digest);
  EXPECT_EQ(warm.trades, cold.trades);
  EXPECT_EQ(warm.planned_gain_total, cold.planned_gain_total);
  EXPECT_EQ(cold.attack.warm_hits, 0u);
  EXPECT_GT(warm.attack.warm_hits + warm.attack.warm_seeded, 0u);
}

TEST(AttackSchedulerDeterminism, TelemetrySwitchDoesNotChangeOutput) {
  const TpdProtocol tpd(Money::from_units(50));
  LiveAttackConfig config = small_session(2, 2);
  const LiveAttackResult off = run_live_attack_session(tpd, config);
  config.telemetry.enabled = true;
  const LiveAttackResult on = run_live_attack_session(tpd, config);
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(on.digest, kPinnedDigest);
  EXPECT_EQ(on.trades, off.trades);
  EXPECT_EQ(on.bids_accepted, off.bids_accepted);
  EXPECT_EQ(on.bus, off.bus);
  EXPECT_EQ(on.epoch, off.epoch);
}

TEST(AttackSchedulerDeterminism, BudgetShedsDeterministically) {
  const TpdProtocol tpd(Money::from_units(50));
  LiveAttackConfig config = small_session(1, 2);
  config.search_budget = 2;
  const LiveAttackResult a = run_live_attack_session(tpd, config);
  const LiveAttackResult b = run_live_attack_session(tpd, config);
  EXPECT_EQ(a.digest, b.digest);
  // 6 attackers, budget 2, planning after rounds 0..2: 3 rounds * 4 shed.
  EXPECT_EQ(a.attack.shed, 12u);
  EXPECT_EQ(a.attack.searches, 6u);
  // The rotating window must cover the population across rounds.
  EXPECT_EQ(a.attack.rounds, 3u);
}

TEST(AttackSchedulerDeterminism, SessionEmitsBothMetricFamilies) {
  const TpdProtocol tpd(Money::from_units(50));
  const LiveAttackResult result =
      run_live_attack_session(tpd, small_session(1, 1));
  // Mechanism level...
  EXPECT_EQ(result.attack.rounds, 3u);  // rounds - 1 planning rounds
  EXPECT_EQ(result.attack.searches, 18u);
  EXPECT_GT(result.trades, 0u);
  EXPECT_GT(result.efficiency_ratio, 0.0);
  EXPECT_LE(result.efficiency_ratio, 1.0 + 1e-9);
  // ...and systems level, from the same run.
  EXPECT_EQ(result.round_wall_ns.size(), result.rounds);
  EXPECT_GT(result.total_wall_ns, 0u);
  EXPECT_GT(result.bus.delivered, 0u);
  ASSERT_NE(result.metrics.find("fnda_attack_rounds_total"), nullptr);
  EXPECT_EQ(result.metrics.find("fnda_attack_rounds_total")->counter, 3u);
  ASSERT_NE(result.metrics.find("fnda_attack_warm_hits_total"), nullptr);
  ASSERT_NE(result.metrics.find("fnda_attack_search_latency_us"), nullptr);
}

TEST(AttackSchedulerDeterminism, SessionRejectsLatencyPastTheInjectionMargin) {
  // Deferred attacker bids leave open_for/2 before the close.  A bus that
  // can take exactly that long still delivers them while the round is
  // open; one microsecond more and they would land after the close.
  const TpdProtocol tpd(Money::from_units(50));
  LiveAttackConfig at_bound = small_session(1, 1);
  at_bound.open_for = SimTime::millis(10);
  at_bound.base_latency = SimTime{4'000};
  at_bound.jitter = SimTime{1'000};
  const LiveAttackResult result = run_live_attack_session(tpd, at_bound);
  EXPECT_EQ(result.rounds, at_bound.rounds);
  EXPECT_GT(result.bids_accepted, 0u);
  EXPECT_EQ(result.attacker_bids_rejected, 0u);

  LiveAttackConfig past = at_bound;
  past.jitter = SimTime{1'001};
  EXPECT_THROW(run_live_attack_session(tpd, past), std::invalid_argument);
}

// --- sessions whose books change ---------------------------------------------

/// One-shard PMD session: PMD rewards false names, so attackers' plans
/// move the book from round to round and the planner has to tell hits
/// from changed books.  With `budget` 3 of 8, shed attackers come back
/// to a book that changed while they were skipped.
LiveAttackConfig pmd_session(std::size_t pool, std::size_t budget) {
  LiveAttackConfig config;
  config.honest = 20;
  config.attackers = 8;
  config.shards = 1;
  config.rounds = 8;
  config.max_declarations = 3;
  config.threads = 1;
  config.search_threads = pool;
  config.search_budget = budget;
  return config;
}

void expect_counters(const AttackSearchCounters& got,
                     const AttackSearchCounters& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.searches, want.searches);
  EXPECT_EQ(got.warm_hits, want.warm_hits);
  EXPECT_EQ(got.warm_seeded, want.warm_seeded);
  EXPECT_EQ(got.cold_runs, want.cold_runs);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.withdrawals, want.withdrawals);
}

TEST(AttackSchedulerChangingBooks, PmdSessionPinsDigestAndCounters) {
  const PmdProtocol pmd;
  for (const std::size_t pool : {1, 2}) {
    SCOPED_TRACE(pool);
    const LiveAttackResult result =
        run_live_attack_session(pmd, pmd_session(pool, 0));
    EXPECT_EQ(result.digest, 0x1a32d4757867d926ull) << std::hex << result.digest;
    expect_counters(result.attack, AttackSearchCounters{
                                        .rounds = 7,
                                        .searches = 56,
                                        .warm_hits = 41,
                                        .warm_seeded = 7,
                                        .cold_runs = 8,
                                        .shed = 0,
                                        .withdrawals = 0});
  }
}

TEST(AttackSchedulerChangingBooks, ShedPmdSessionPinsDigestAndCounters) {
  const PmdProtocol pmd;
  for (const std::size_t pool : {1, 2}) {
    SCOPED_TRACE(pool);
    const LiveAttackResult result =
        run_live_attack_session(pmd, pmd_session(pool, 3));
    EXPECT_EQ(result.digest, 0x6e296085a212fb15ull) << std::hex << result.digest;
    expect_counters(result.attack, AttackSearchCounters{
                                        .rounds = 7,
                                        .searches = 21,
                                        .warm_hits = 8,
                                        .warm_seeded = 5,
                                        .cold_runs = 8,
                                        .shed = 35,
                                        .withdrawals = 0});
  }
}

// --- the parked search pool -------------------------------------------------

/// TPD whose `account_position` — which every attack search calls, both
/// to revalidate a warm hit and inside the engine — throws on demand.
class ThrowingTpd final : public DoubleAuctionProtocol {
 public:
  PriceBracket price_bracket(const SortedBook& ranked,
                             std::size_t extra) const override {
    return tpd_.price_bracket(ranked, extra);
  }
  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override {
    if (fail.load()) throw std::runtime_error("account_position failed");
    return tpd_.account_position(ranked, own, out);
  }
  std::string name() const override { return "throwing-tpd"; }

  std::atomic<bool> fail{false};

 private:
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override {
    tpd_.clear_into(book, rng, out);
  }

  TpdProtocol tpd_{Money::from_units(50)};
};

/// A small co-simulation driven round by round, as
/// run_live_attack_session drives it.
class CoSim {
 public:
  CoSim(const DoubleAuctionProtocol& protocol, std::size_t pool) {
    MultiExchangeConfig mx;
    mx.shards = 2;
    mx.server.domain = ValueDomain{Money::from_units(0), Money::from_units(100)};
    mx.initial_cash = MultiServerExchange::zi_endowment(kRounds, 3);
    mx.seed = 7;
    exchange_ = std::make_unique<MultiServerExchange>(protocol, mx);
    exchange_->add_zi_traders(60, 1, 100, kRounds);
    AttackSchedulerConfig sched;
    sched.search.max_declarations = 2;
    sched.search.grid_override = {Money::from_units(1), Money::from_units(50),
                                  Money::from_units(100)};
    sched.pool_threads = pool;
    scheduler_ = std::make_unique<AttackScheduler>(*exchange_, sched);
    for (std::size_t i = 0; i < 6; ++i) {
      const Side role = i % 2 == 0 ? Side::kBuyer : Side::kSeller;
      TradingClient& attacker = exchange_->add_trader(
          role, Money::from_units(static_cast<std::int64_t>(20 + 10 * i)));
      if (role == Side::kSeller) {
        exchange_->grant_goods(attacker.account(), kRounds);
      }
      scheduler_->add_attacker(attacker);
    }
  }

  /// Runs one round and returns its RoundIds, ready for `plan_from`.
  std::vector<RoundId> run_round() {
    const SimTime open_for = SimTime::millis(100);
    const std::vector<RoundId> rounds = exchange_->open_rounds(open_for);
    std::vector<SimTime> bounds;
    for (std::size_t s = 0; s < exchange_->shard_count(); ++s) {
      bounds.push_back(*exchange_->server(s).round_closes_at() -
                       SimTime{open_for.micros / 2});
    }
    exchange_->drive_until(bounds);
    scheduler_->join();
    scheduler_->apply_and_submit();
    exchange_->drive_to_quiescence();
    return rounds;
  }

  AttackScheduler& scheduler() { return *scheduler_; }
  /// Destroys the scheduler (and with it the pool) before the exchange.
  void reset_scheduler() { scheduler_.reset(); }

  static constexpr std::size_t kRounds = 8;

 private:
  std::unique_ptr<MultiServerExchange> exchange_;
  std::unique_ptr<AttackScheduler> scheduler_;
};

TEST(AttackSchedulerPool, SearchExceptionSurfacesAtJoinAndThePoolRecovers) {
  ThrowingTpd protocol;
  CoSim sim(protocol, 2);
  std::vector<RoundId> rounds = sim.run_round();

  protocol.fail = true;
  sim.scheduler().plan_from(rounds);
  EXPECT_THROW(sim.scheduler().join(), std::runtime_error);
  EXPECT_EQ(sim.scheduler().counters().searches, 0u);
  sim.scheduler().join();  // the error was consumed; nothing in flight

  // The same parked workers run the next rounds normally.
  protocol.fail = false;
  sim.scheduler().plan_from(rounds);
  EXPECT_NO_THROW(sim.scheduler().join());
  EXPECT_EQ(sim.scheduler().counters().searches, 6u);
  rounds = sim.run_round();
  sim.scheduler().plan_from(rounds);
  EXPECT_NO_THROW(sim.scheduler().join());
  EXPECT_EQ(sim.scheduler().counters().searches, 12u);
}

TEST(AttackSchedulerPool, DestroyingWithSearchesInFlightReturnsCleanly) {
  const TpdProtocol tpd(Money::from_units(50));
  for (const std::size_t pool : {1, 3}) {
    CoSim sim(tpd, pool);
    sim.scheduler().plan_from(sim.run_round());
    sim.reset_scheduler();  // no join: the destructor waits and reaps
  }
  // Torn down with a failed round still unjoined: the error is dropped.
  ThrowingTpd protocol;
  CoSim sim(protocol, 2);
  const std::vector<RoundId> rounds = sim.run_round();
  protocol.fail = true;
  sim.scheduler().plan_from(rounds);
  sim.reset_scheduler();
}

// --- the unchanged-input rule ----------------------------------------------

/// TPD that counts `account_position` calls: a revalidation of a cached
/// truthful plan makes one, a repeat answered on the driver makes none.
class CountingTpd final : public DoubleAuctionProtocol {
 public:
  PriceBracket price_bracket(const SortedBook& ranked,
                             std::size_t extra) const override {
    return tpd_.price_bracket(ranked, extra);
  }
  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override {
    ++positions;
    return tpd_.account_position(ranked, own, out);
  }
  std::string name() const override { return "counting-tpd"; }

  mutable std::atomic<std::size_t> positions{0};

 private:
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override {
    tpd_.clear_into(book, rng, out);
  }

  TpdProtocol tpd_{Money::from_units(50)};
};

TEST(AttackSchedulerRepeat, OnlyARevalidatedPlanRepeatsOnTheDriver) {
  CountingTpd protocol;
  CoSim sim(protocol, 2);
  AttackScheduler& scheduler = sim.scheduler();
  const std::vector<RoundId> first = sim.run_round();

  // A search, then the first check on the same book: it revalidates.
  scheduler.plan_from(first);
  scheduler.join();
  EXPECT_EQ(scheduler.counters().cold_runs, 6u);
  std::size_t positions = protocol.positions;
  scheduler.plan_from(first);
  scheduler.join();
  EXPECT_EQ(scheduler.counters().warm_hits, 6u);
  EXPECT_GT(protocol.positions, positions);

  // Every later check on that book repeats the hit without pricing.
  positions = protocol.positions;
  for (int repeat = 0; repeat < 2; ++repeat) {
    scheduler.plan_from(first);
    scheduler.join();
  }
  EXPECT_EQ(scheduler.counters().warm_hits, 18u);
  EXPECT_EQ(scheduler.counters().searches, 24u);
  EXPECT_EQ(protocol.positions, positions);
}

/// One shard, three attackers and nobody else: buyers A (30) and B (60)
/// and seller C (20), each round declaring what the test says.
class ThreeAttackers {
 public:
  ThreeAttackers() {
    MultiExchangeConfig mx;
    mx.shards = 1;
    mx.server.domain =
        ValueDomain{Money::from_units(0), Money::from_units(100)};
    mx.initial_cash = MultiServerExchange::zi_endowment(kRounds, 3);
    mx.seed = 11;
    exchange_ = std::make_unique<MultiServerExchange>(tpd_, mx);
    AttackSchedulerConfig sched;
    sched.search.max_declarations = 2;
    sched.search.grid_override = {Money::from_units(10),
                                  Money::from_units(50),
                                  Money::from_units(90)};
    sched.pool_threads = 2;
    scheduler_ = std::make_unique<AttackScheduler>(*exchange_, sched);
    clients_ = {&exchange_->add_trader(Side::kBuyer, Money::from_units(30)),
                &exchange_->add_trader(Side::kBuyer, Money::from_units(60)),
                &exchange_->add_trader(Side::kSeller, Money::from_units(20))};
    exchange_->grant_goods(clients_[2]->account(), kRounds);
    for (TradingClient* client : clients_) scheduler_->add_attacker(*client);
  }

  /// Runs one round in which A, B and C declare these values, bypassing
  /// the scheduler's plans, and returns its RoundIds.
  std::vector<RoundId> play(std::int64_t a, std::int64_t b, std::int64_t c) {
    const SimTime open_for = SimTime::millis(100);
    const std::vector<RoundId> rounds = exchange_->open_rounds(open_for);
    exchange_->drive_until({*exchange_->server(0).round_closes_at() -
                            SimTime{open_for.micros / 2}});
    const std::int64_t declared[] = {a, b, c};
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      clients_[i]->set_strategy(Strategy::truthful(
          clients_[i]->role(), Money::from_units(declared[i])));
      clients_[i]->submit_pending();
    }
    exchange_->drive_to_quiescence();
    return rounds;
  }

  /// Searches every attacker against `rounds`, then revalidates once, so
  /// the next unchanged check would repeat on the driver.
  void search_and_revalidate(const std::vector<RoundId>& rounds) {
    for (int pass = 0; pass < 2; ++pass) {
      scheduler_->plan_from(rounds);
      scheduler_->join();
    }
  }

  const SortedBook& book(const std::vector<RoundId>& rounds) const {
    return *exchange_->server(0).ranked_of(rounds[0]);
  }
  AccountId owner(const BidEntry& entry) const {
    return exchange_->registry(0).owner(entry.identity);
  }
  AttackScheduler& scheduler() { return *scheduler_; }
  /// Searches that ran the engine, seeded or cold.
  std::uint64_t engine_runs() const {
    return scheduler_->counters().warm_seeded +
           scheduler_->counters().cold_runs;
  }

 private:
  static constexpr std::size_t kRounds = 3;
  const TpdProtocol tpd_{Money::from_units(50)};
  std::unique_ptr<MultiServerExchange> exchange_;
  std::unique_ptr<AttackScheduler> scheduler_;
  std::vector<TradingClient*> clients_;
};

TEST(AttackSchedulerRepeat, SwappedDeclarationsTakeTheFullPath) {
  // Round 2 has A declare 60 and B 30: both rounds' lanes hold the same
  // values, but A's and B's own entries, and with them their residual
  // lanes, differ.
  ThreeAttackers sim;
  const std::vector<RoundId> truthful = sim.play(30, 60, 20);
  const std::vector<RoundId> swapped = sim.play(60, 30, 20);
  const SortedBook& before = sim.book(truthful);
  const SortedBook& after = sim.book(swapped);
  ASSERT_EQ(before.buyer_count(), 2u);
  ASSERT_EQ(after.buyer_count(), 2u);
  for (std::size_t rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(before.buyers()[rank].value, after.buyers()[rank].value);
    EXPECT_NE(sim.owner(before.buyers()[rank]),
              sim.owner(after.buyers()[rank]));
  }
  ASSERT_EQ(before.sellers().size(), 1u);
  EXPECT_EQ(before.sellers()[0].value, after.sellers()[0].value);

  sim.search_and_revalidate(truthful);
  ASSERT_EQ(sim.scheduler().counters().warm_hits, 3u);
  const std::uint64_t runs = sim.engine_runs();
  sim.scheduler().plan_from(swapped);
  sim.scheduler().join();
  // Only C repeats; A and B search their new residual lanes.
  EXPECT_EQ(sim.scheduler().counters().warm_hits, 4u);
  EXPECT_EQ(sim.engine_runs(), runs + 2);
}

TEST(AttackSchedulerRepeat, AnotherAttackersMoveTakesTheFullPath) {
  // Round 2 moves only C's ask: A's and B's own entries are unchanged,
  // but the lanes, and so their residual sellers, are not.
  ThreeAttackers sim;
  const std::vector<RoundId> first = sim.play(30, 60, 20);
  const std::vector<RoundId> moved = sim.play(30, 60, 25);
  sim.search_and_revalidate(first);
  ASSERT_EQ(sim.scheduler().counters().warm_hits, 3u);
  const std::uint64_t runs = sim.engine_runs();
  sim.scheduler().plan_from(moved);
  sim.scheduler().join();
  // A and B search.  C's residual lanes never hold its own ask, so its
  // full check on the pool finds them unchanged and hits.
  EXPECT_EQ(sim.scheduler().counters().warm_hits, 4u);
  EXPECT_EQ(sim.engine_runs(), runs + 2);

  // Back on the first book the generation moves again, although these
  // lanes were seen before: A and B search again, C hits again.
  sim.scheduler().plan_from(first);
  sim.scheduler().join();
  EXPECT_EQ(sim.scheduler().counters().warm_hits, 5u);
  EXPECT_EQ(sim.engine_runs(), runs + 4);
}

}  // namespace
}  // namespace fnda
