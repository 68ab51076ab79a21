#include "market/live_attack.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "common/fnv.h"
#include "market/attack_scheduler.h"
#include "market/multi_exchange.h"
#include "obs/metrics.h"

namespace fnda {
namespace {

std::uint64_t wall_ns_since(
    const std::chrono::steady_clock::time_point& start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Greedy efficient surplus of one shard's true-value population: match
/// the highest buyer with the lowest seller while the pair is positive.
std::int64_t efficient_surplus_micros(std::vector<Money> buyers,
                                      std::vector<Money> sellers) {
  std::sort(buyers.begin(), buyers.end(),
            [](Money a, Money b) { return a > b; });
  std::sort(sellers.begin(), sellers.end());
  std::int64_t total = 0;
  const std::size_t pairs = std::min(buyers.size(), sellers.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    if (buyers[i] <= sellers[i]) break;
    total += (buyers[i] - sellers[i]).micros();
  }
  return total;
}

}  // namespace

LiveAttackResult run_live_attack_session(const DoubleAuctionProtocol& protocol,
                                         const LiveAttackConfig& config) {
  const auto session_started = std::chrono::steady_clock::now();
  // Deferred attacker bids are sent at the bounded-drive stop, `margin`
  // before each close; a slower bus would deliver them after the close,
  // where the server rejects them as kRoundNotOpen.
  const SimTime margin{config.open_for.micros / 2};
  if (config.base_latency + config.jitter > margin) {
    throw std::invalid_argument(
        "run_live_attack_session: base_latency + jitter exceeds open_for / 2");
  }

  MultiExchangeConfig mx;
  mx.shards = config.shards;
  mx.threads = config.threads;
  mx.bus.base_latency = config.base_latency;
  mx.bus.jitter = config.jitter;
  mx.server.domain =
      ValueDomain{Money::from_units(0), Money::from_units(config.value_high)};
  // Round r's ranked book must survive while round r+1 completes (the
  // scheduler snapshots it at the barrier, but the co-sim tests also
  // replay it), so retain at least two.
  mx.server.retained_rounds = std::max<std::size_t>(config.retained_rounds, 2);
  // Attackers mint up to max_declarations identities per round.
  mx.initial_cash = MultiServerExchange::zi_endowment(
      config.rounds, config.max_declarations + 1);
  mx.seed = config.seed;
  mx.telemetry = config.telemetry;

  MultiServerExchange exchange(protocol, mx);

  // Honest ZI population first, attackers after: account ids — and with
  // them shard placement and every downstream id stream — do not depend
  // on the attack configuration knobs.
  exchange.add_zi_traders(config.honest, config.value_low, config.value_high,
                          config.rounds);

  AttackSchedulerConfig sched;
  sched.search.max_declarations = config.max_declarations;
  sched.search.allow_absence = true;
  sched.search.threads = 1;
  // Fixed evenly spaced grid: population-independent search cost, and a
  // stable candidate space across rounds (warm cache key ingredient).
  sched.search.grid_override.reserve(std::max<std::size_t>(config.grid_points,
                                                           2));
  {
    const std::int64_t lo = config.value_low;
    const std::int64_t hi = config.value_high;
    const std::size_t points = std::max<std::size_t>(config.grid_points, 2);
    for (std::size_t g = 0; g < points; ++g) {
      const std::int64_t units =
          lo + (hi - lo) * static_cast<std::int64_t>(g) /
                   static_cast<std::int64_t>(points - 1);
      sched.search.grid_override.push_back(Money::from_units(units));
    }
  }
  sched.seed = config.seed ^ 0xa77ac4ull;
  sched.warm = config.warm;
  sched.pool_threads = config.search_threads;
  sched.round_budget = config.search_budget;
  AttackScheduler scheduler(exchange, sched);

  Rng attacker_values(Rng(config.seed ^ 0xbad5eedULL).split());
  for (std::size_t i = 0; i < config.attackers; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value = Money::from_units(
        attacker_values.uniform_int(config.value_low, config.value_high));
    TradingClient& attacker = exchange.add_trader(role, value);
    // False-name strategies can sell beyond the endowment (the penalty
    // prices that); stock the honest-side endowment like any seller and
    // cover the extra per-identity deposits.
    if (role == Side::kSeller && config.rounds > 1) {
      exchange.grant_goods(attacker.account(), config.rounds - 1);
    }
    scheduler.add_attacker(attacker);
  }

  obs::MetricsRegistry attack_registry;
  obs::Histogram* latency_hist = nullptr;
  bind_attack_metrics(attack_registry, scheduler.counters(), &latency_hist);
  scheduler.bind_latency_histogram(*latency_hist);

  // True-value maps for the surplus accounting (announced fills pierce
  // the identity veil through the per-shard registry).
  std::unordered_map<std::uint64_t, Money> value_of_account;
  std::vector<std::vector<Money>> shard_buyer_values(exchange.shard_count());
  std::vector<std::vector<Money>> shard_seller_values(exchange.shard_count());
  for (const auto& trader : exchange.traders()) {
    value_of_account.emplace(trader->account().value(), trader->true_value());
    const std::size_t shard = exchange.shard_of(trader->account());
    (trader->role() == Side::kBuyer ? shard_buyer_values
                                    : shard_seller_values)[shard]
        .push_back(trader->true_value());
  }
  std::int64_t efficient_per_round_micros = 0;
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    efficient_per_round_micros += efficient_surplus_micros(
        shard_buyer_values[s], shard_seller_values[s]);
  }

  LiveAttackResult result;
  result.honest = config.honest;
  result.attackers = config.attackers;
  result.shards = exchange.shard_count();
  result.threads = exchange.thread_count();
  result.search_threads = std::max<std::size_t>(config.search_threads, 1);

  std::uint64_t digest = kFnvOffsetBasis;
  std::int64_t realized_micros = 0;

  for (std::size_t r = 0; r < config.rounds; ++r) {
    const auto round_started = std::chrono::steady_clock::now();
    const std::vector<RoundId> rounds = exchange.open_rounds(config.open_for);

    // Bounded drive: clear the honest traffic up to open_for/2 before
    // each shard's close while the searches (launched from round r-1's
    // book) run on the background pool.
    std::vector<SimTime> bounds;
    bounds.reserve(exchange.shard_count());
    for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
      const SimTime close = *exchange.server(s).round_closes_at();
      bounds.push_back(close - margin);
    }
    exchange.drive_until(bounds);

    // Staleness barrier: strategies computed from round r-1 inject into
    // round r, in account order on this thread — deterministic for every
    // exchange thread count and pool size.
    scheduler.join();
    scheduler.apply_and_submit();
    exchange.drive_to_quiescence();

    result.trades += exchange.fold_rounds(digest, rounds);
    for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
      const Outcome* outcome = exchange.server(s).outcome_of(rounds[s]);
      if (outcome == nullptr) continue;
      const IdentityRegistry& registry = exchange.registry(s);
      for (const Fill& fill : outcome->fills()) {
        const AccountId owner = registry.owner(fill.identity);
        const auto it = value_of_account.find(owner.value());
        if (it == value_of_account.end()) continue;
        realized_micros += fill.side == Side::kBuyer ? it->second.micros()
                                                     : -it->second.micros();
      }
    }

    // Overlap setup for the next round: snapshot round r's books and
    // launch the searches before the next open (skipped after the last
    // round — nothing left to plan for).
    if (r + 1 < config.rounds) scheduler.plan_from(rounds);

    result.round_wall_ns.push_back(wall_ns_since(round_started));
    ++result.rounds;
  }
  scheduler.join();

  std::size_t trader_index = 0;
  for (const auto& trader : exchange.traders()) {
    result.bids_accepted += trader->bids_accepted();
    // Honest traders were added first, attackers after.
    if (trader_index++ >= config.honest) {
      result.attacker_bids_rejected += trader->bids_rejected();
    }
    const AccountPosition position = trader->position();
    fnv1a_fold(digest, position.bought);
    fnv1a_fold(digest, position.sold);
    fnv1a_fold(digest, static_cast<std::uint64_t>(position.paid.micros()));
    fnv1a_fold(digest, static_cast<std::uint64_t>(position.received.micros()));
  }
  exchange.fold_ledger_totals(digest);

  result.sim_time = exchange.now();
  result.bus = exchange.bus_stats();
  result.epoch = exchange.epoch_totals();
  result.attack = scheduler.counters();
  result.search_wall_ns = scheduler.search_wall_ns();
  result.planned_gain_total = scheduler.planned_gain_total();
  result.profitable_searches = scheduler.profitable_searches();
  const std::int64_t efficient_total =
      efficient_per_round_micros *
      static_cast<std::int64_t>(std::max<std::size_t>(config.rounds, 1));
  result.efficiency_ratio =
      efficient_total > 0 ? static_cast<double>(realized_micros) /
                                static_cast<double>(efficient_total)
                          : 0.0;
  result.digest = digest;
  result.total_wall_ns = wall_ns_since(session_started);
  result.metrics = attack_registry.snapshot();
  return result;
}

}  // namespace fnda
