#include "market/multi_exchange.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/fnv.h"

namespace fnda {

MultiServerExchange::MultiServerExchange(const DoubleAuctionProtocol& protocol,
                                         MultiExchangeConfig config)
    : config_(config),
      protocol_(&protocol),
      runtime_config_(config.server),
      paused_(config.shards == 0 ? 1 : config.shards, false) {
  if (config_.shards == 0) {
    throw std::invalid_argument("MultiServerExchange: shards must be >= 1");
  }
  if (!config_.adaptive_epochs) {
    throw std::invalid_argument(
        "MultiServerExchange: adaptive_epochs must be true (every drive "
        "runs each shard to its bound in one parallel region)");
  }
  pool_ = std::make_unique<WorkerPool>(
      std::min(resolve_threads(config_.threads), config_.shards));

  // RNG derivation order is part of the replay contract.  The seed root
  // hands out one stream for the bus layer, then one server stream per
  // shard in shard order — exactly the draws the shared-queue engine
  // made, so equal seeds reproduce the pre-sharding clearing seeds.  The
  // bus layer stream is the single bus's RNG when shards == 1 (the
  // single-server draw order the recorded single-shard digest pins) and
  // the parent of one sub-stream per shard bus otherwise.
  Rng root(config_.seed);
  Rng bus_master = root.split();
  for (std::size_t s = 0; s < config_.shards; ++s) {
    Shard& shard = shards_.emplace_back();
    BusConfig bus_config = config_.bus;
    bus_config.first_message_id = s;
    bus_config.message_id_stride = config_.shards;
    const Rng bus_rng =
        config_.shards == 1 ? bus_master : bus_master.split();
    shard.bus = std::make_unique<MessageBus>(shard.queue, bus_config, bus_rng,
                                             *addresses_,
                                             static_cast<std::uint32_t>(s));
    shard.registry = IdentityRegistry(s, config_.shards);
    shard.escrow =
        std::make_unique<EscrowService>(shard.cash, shard.registry.lattice());
    shard.settlement = std::make_unique<SettlementEngine>(
        shard.registry, shard.cash, shard.goods, *shard.escrow);
    shard.server = std::make_unique<AuctionServer>(
        "exchange-" + std::to_string(s), shard.queue, *shard.bus, protocol,
        *shard.escrow, *shard.settlement, shard.audit, root.split(),
        config_.server);
    shard.traders = std::make_unique<TraderPopulation>(
        shard.queue, *shard.bus, shard.registry, *shard.escrow,
        shard.server->address_id(), config_.client);
  }

  std::vector<EventQueue*> queues;
  queues.reserve(shards_.size());
  for (Shard& shard : shards_) queues.push_back(&shard.queue);
  driver_ = std::make_unique<EpochDriver>(std::move(queues), *pool_);

  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::SessionTelemetry>(config_.shards,
                                                         config_.telemetry);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::ShardTelemetry& shard_telemetry = telemetry_->shard(s);
      if (config_.telemetry.wallclock) {
        shard_telemetry.trace.set_clock(
            [t = telemetry_.get()] { return t->wall_micros(); });
      } else {
        shard_telemetry.trace.set_clock(
            [q = &shards_[s].queue] { return q->now().micros; });
      }
      shards_[s].bus->bind_telemetry(shard_telemetry);
      shards_[s].server->bind_telemetry(shard_telemetry, *telemetry_);
      shards_[s].escrow->bind_metrics(shard_telemetry.metrics);
      shards_[s].settlement->bind_metrics(shard_telemetry.metrics);
    }
    if (config_.telemetry.wallclock) {
      telemetry_->driver().trace.set_clock(
          [t = telemetry_.get()] { return t->wall_micros(); });
    }
    driver_->bind_telemetry(*telemetry_);
  }
}

std::size_t MultiServerExchange::shard_of(AccountId account) const {
  // splitmix64 finalizer: a plain multiplicative hash keeps the low bits
  // of sequential account ids, which correlates shard with creation
  // parity (and thus with any alternating buyer/seller pattern).
  std::uint64_t x = account.value() + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

TradingClient& MultiServerExchange::add_trader(Side role, Money true_value) {
  // Account ids come from one exchange-level counter (matching the old
  // shared registry), so shard_of and the account/shard assignment are
  // unchanged; everything behind the id lives on the home shard.
  const AccountId account{next_account_++};
  Shard& home = shards_[shard_of(account)];
  home.cash.grant(account, config_.initial_cash);
  if (role == Side::kSeller) home.goods.grant(account, 1);

  const std::uint32_t slot =
      home.traders->add("trader-" + std::to_string(next_client_++), account,
                        role, true_value);
  TradingClient& trader = traders_.emplace_back(*home.traders, slot);
  home.server->subscribe(trader.address_id());
  return trader;
}

TradingClient& MultiServerExchange::add_trader(Side role, Money true_value,
                                               Strategy strategy) {
  TradingClient& trader = add_trader(role, true_value);
  // Only traders that deviate from truth-telling need side state.
  const bool truthful =
      strategy.is_single_bid() &&
      strategy.declarations.front() == Declaration{role, true_value};
  if (!truthful) trader.set_strategy(std::move(strategy));
  return trader;
}

std::vector<RoundId> MultiServerExchange::run_round(SimTime open_for) {
  std::vector<RoundId> rounds = open_rounds(open_for);
  drive_to_quiescence();
  return rounds;
}

std::vector<RoundId> MultiServerExchange::open_rounds(SimTime open_for) {
  // Round boundary: every shard is quiescent and this runs on the driver
  // thread, so promoting a pending config generation here is race-free
  // and, by construction, identical for every --threads value.
  if (runtime_config_.apply_pending(next_round_stamp_)) {
    for (Shard& shard : shards_) {
      shard.server->set_config(runtime_config_.active());
    }
  }
  ++next_round_stamp_;
  // Traders bid once per round through a last-round-bid word, which
  // needs every announcement of a round delivered before the next round
  // opens: rounds open only on a quiescent exchange.
#ifndef NDEBUG
  for (const Shard& shard : shards_) {
    assert(shard.queue.pending() == 0 && "open_rounds: exchange not quiescent");
  }
#endif
  std::vector<RoundId> rounds;
  rounds.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (paused_[s]) {
      rounds.push_back(RoundId::invalid());
      continue;
    }
    rounds.push_back(shards_[s].server->open_round(open_for));
  }
  return rounds;
}

void MultiServerExchange::pause_shard(std::size_t shard) {
  paused_.at(shard) = true;
}

void MultiServerExchange::resume_shard(std::size_t shard) {
  paused_.at(shard) = false;
}

std::size_t MultiServerExchange::paused_count() const {
  std::size_t count = 0;
  for (const bool paused : paused_) count += paused ? 1 : 0;
  return count;
}

EpochStats MultiServerExchange::drive_until(
    const std::vector<SimTime>& bounds) {
  const EpochStats stats = driver_->drive_until(bounds);
  epoch_totals_.merge(stats);
  return stats;
}

void MultiServerExchange::drive_to_quiescence() {
  // One full drive's stats become last_drive_ — run_round keeps reporting
  // exactly what it always has, whether or not bounded drives preceded it.
  last_drive_ = driver_->drive();
  epoch_totals_.merge(last_drive_);
}

std::size_t MultiServerExchange::rounds_completed() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.server->rounds_completed();
  }
  return total;
}

Money MultiServerExchange::close_market() {
  for (const Shard& shard : shards_) {
    if (shard.server->round_open()) {
      throw std::logic_error("close_market: a round is still open");
    }
  }
  Money refunded;
  for (Shard& shard : shards_) {
    refunded += shard.escrow->refund_all(shard.registry, shard.audit,
                                         shard.queue.now());
  }
  return refunded;
}

double MultiServerExchange::settled_utility(
    const TradingClient& client) const {
  const AccountId account = client.account();
  const Shard& home = shards_[shard_of(account)];
  // Wealth = spendable cash + deposits still in escrow (they remain the
  // account's money unless confiscated) + the valued unit, if held.
  Money escrowed;
  for (IdentityId identity : client.identities()) {
    escrowed += home.escrow->held(identity);
  }
  const double cash_now = (home.cash.balance(account) + escrowed).to_double();
  const double cash_initial = config_.initial_cash.to_double();

  const std::size_t units = home.goods.units(account);
  const double value = client.true_value().to_double();
  const double goods_now = units > 0 ? value : 0.0;  // one unit is valued
  const double goods_initial = client.role() == Side::kSeller ? value : 0.0;

  return (cash_now - cash_initial) + (goods_now - goods_initial);
}

Money MultiServerExchange::zi_endowment(std::size_t rounds,
                                        std::size_t identities_per_round) {
  return Money::from_units(static_cast<std::int64_t>(rounds + 1) * 10 *
                               static_cast<std::int64_t>(identities_per_round) +
                           1'000);
}

void MultiServerExchange::add_zi_traders(std::size_t count,
                                         std::int64_t value_low,
                                         std::int64_t value_high,
                                         std::size_t rounds) {
  Rng values(Rng(config_.seed ^ 0x5eedu).split());
  for (std::size_t i = 0; i < count; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value =
        Money::from_units(values.uniform_int(value_low, value_high));
    TradingClient& trader = add_trader(role, value);
    if (role == Side::kSeller && rounds > 1) {
      grant_goods(trader.account(), rounds - 1);
    }
  }
}

std::size_t MultiServerExchange::fold_rounds(
    std::uint64_t& digest, const std::vector<RoundId>& rounds) const {
  std::size_t trades = 0;
  for (std::size_t s = 0; s < rounds.size(); ++s) {
    if (rounds[s] == RoundId::invalid()) continue;  // paused shard
    const Outcome* outcome = shards_[s].server->outcome_of(rounds[s]);
    if (outcome == nullptr) continue;
    trades += outcome->trade_count();
    fnv1a_fold(digest, s);
    fnv1a_fold(digest, rounds[s].value());
    fnv1a_fold(digest, outcome->trade_count());
    for (const Fill& fill : outcome->fills()) {
      fnv1a_fold(digest, fill.side == Side::kBuyer ? 1 : 2);
      fnv1a_fold(digest, fill.identity.value());
      fnv1a_fold(digest, static_cast<std::uint64_t>(fill.price.micros()));
    }
  }
  return trades;
}

void MultiServerExchange::fold_ledger_totals(std::uint64_t& digest) const {
  fnv1a_fold(digest, static_cast<std::uint64_t>(cash_total().micros()));
  fnv1a_fold(digest, goods_total());
  fnv1a_fold(digest, static_cast<std::uint64_t>(escrow_total_held().micros()));
}

SimTime MultiServerExchange::now() const {
  SimTime latest{};
  for (const Shard& shard : shards_) {
    latest = std::max(latest, shard.queue.now());
  }
  return latest;
}

BusStats MultiServerExchange::bus_stats() const {
  BusStats merged;
  for (const Shard& shard : shards_) merged.merge(shard.bus->stats());
  return merged;
}

LiveBookStats MultiServerExchange::book_stats() const {
  LiveBookStats merged;
  for (const Shard& shard : shards_) merged.merge(shard.server->book_stats());
  return merged;
}

std::vector<BusStats> MultiServerExchange::shard_bus_stats() const {
  std::vector<BusStats> stats;
  stats.reserve(shards_.size());
  for (const Shard& shard : shards_) stats.push_back(shard.bus->stats());
  return stats;
}

std::vector<AuditRecord> MultiServerExchange::merged_audit() const {
  std::vector<AuditRecord> merged;
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.audit.records().size();
  merged.reserve(total);
  // Stable merge by timestamp with shard index as the tiebreak: append
  // in shard order, then stable-sort by time.  Within one shard the log
  // is already chronological, so the result is a canonical total order.
  for (const Shard& shard : shards_) {
    const auto& records = shard.audit.records();
    merged.insert(merged.end(), records.begin(), records.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const AuditRecord& a, const AuditRecord& b) {
                     return a.at < b.at;
                   });
  return merged;
}

std::vector<AuditRecord> MultiServerExchange::merged_audit_tail(
    std::size_t n) const {
  // Backward k-way merge under merged_audit()'s order: the later record
  // is the one with the larger timestamp, then the larger shard index
  // (each shard log is chronological, so its own order breaks the rest).
  std::vector<std::size_t> remaining;
  remaining.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    remaining.push_back(shard.audit.records().size());
  }
  std::vector<AuditRecord> tail;
  while (tail.size() < n) {
    std::size_t latest = shards_.size();
    SimTime latest_at{};
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (remaining[s] == 0) continue;
      const SimTime at = shards_[s].audit.records()[remaining[s] - 1].at;
      if (latest == shards_.size() || at >= latest_at) {
        latest = s;
        latest_at = at;
      }
    }
    if (latest == shards_.size()) break;
    tail.push_back(shards_[latest].audit.records()[--remaining[latest]]);
  }
  std::reverse(tail.begin(), tail.end());
  return tail;
}

std::size_t MultiServerExchange::audit_count(AuditKind kind) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.audit.count(kind);
  return total;
}

Money MultiServerExchange::cash_balance(AccountId account) const {
  // An account's funds live on its home shard, except the exchange
  // account (0), which every shard's settlement credits; summing covers
  // both without special cases.
  Money total;
  for (const Shard& shard : shards_) {
    total += shard.cash.balance(account);
  }
  return total;
}

Money MultiServerExchange::cash_total() const {
  Money total;
  for (const Shard& shard : shards_) total += shard.cash.total();
  return total;
}

std::size_t MultiServerExchange::goods_units(AccountId account) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.goods.units(account);
  return total;
}

std::size_t MultiServerExchange::goods_total() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.goods.total();
  return total;
}

Money MultiServerExchange::escrow_total_held() const {
  Money total;
  for (const Shard& shard : shards_) total += shard.escrow->total_held();
  return total;
}

void MultiServerExchange::grant_cash(AccountId account, Money amount) {
  shards_[shard_of(account)].cash.grant(account, amount);
}

void MultiServerExchange::grant_goods(AccountId account, std::size_t units) {
  shards_[shard_of(account)].goods.grant(account, units);
}

}  // namespace fnda
