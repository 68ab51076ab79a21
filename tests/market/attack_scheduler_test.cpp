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

}  // namespace
}  // namespace fnda
