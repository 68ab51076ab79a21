#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/rng.h"
#include "core/instance.h"
#include "core/surplus.h"
#include "core/validation.h"

namespace perfbench {

using namespace fnda;

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

// --- Tracer ----------------------------------------------------------------

int Tracer::store(const char* name) {
  if (spans_.size() >= kMaxStored) {
    ++dropped_;
    return -1;
  }
  const int parent = stack_.empty() ? -1 : stack_.back().stored_index;
  spans_.push_back(Span{name, parent, 0, 0});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(const char* name) {
  const int stored_index = store(name);
  stack_.push_back(Open{name, stored_index, now_ns(), 0});
  return static_cast<int>(stack_.size()) - 1;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  const Open open = stack_[static_cast<std::size_t>(index)];
  stack_.resize(static_cast<std::size_t>(index));
  finish(open.name, open.stored_index, open.start_ns, end, open.child_ns);
}

void Tracer::add_measured(const char* name, std::int64_t start_ns,
                          std::int64_t duration_ns) {
  finish(name, store(name), start_ns, start_ns + duration_ns, 0);
}

void Tracer::finish(const char* name, int stored_index, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t child_ns) {
  const std::int64_t duration = end_ns - start_ns;
  if (stored_index >= 0) {
    Span& span = spans_[static_cast<std::size_t>(stored_index)];
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.child_ns = child_ns;
  }
  if (!stack_.empty()) stack_.back().child_ns += duration;
  Totals* totals = nullptr;
  for (Totals& candidate : totals_) {
    if (candidate.name == name || std::strcmp(candidate.name, name) == 0) {
      totals = &candidate;
      break;
    }
  }
  if (totals == nullptr) totals = &totals_.emplace_back(Totals{name});
  totals->total_ms += static_cast<double>(duration) / 1e6;
  totals->self_ms += static_cast<double>(duration - child_ns) / 1e6;
  ++totals->count;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  for (const Totals& totals : totals_) {
    if (name == totals.name) return totals;
  }
  return Totals{""};
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"parent\": " << span.parent
        << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns
        << ", \"self_ns\": " << (span.end_ns - span.start_ns - span.child_ns)
        << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Counts, failures, snapshot readers --------------------------------------

std::string Counts::first_difference(const Counts& other) const {
  for (const auto& [name, value] : values) {
    if (other.get(name) != value || !other.values.contains(name)) {
      return name + " (" + std::to_string(value) + " vs " +
             std::to_string(other.get(name)) + ")";
    }
  }
  for (const auto& [name, value] : other.values) {
    if (!values.contains(name)) return name + " (missing)";
  }
  return "";
}

std::uint64_t Failures::failed() const {
  std::uint64_t total = 0;
  for (const auto& [cause, count] : by_cause) total += count;
  return total;
}

double histogram_quantile(const obs::MetricsSnapshot& snapshot,
                          const std::string& name, double q) {
  const obs::MetricValue* metric = snapshot.find(name);
  if (metric == nullptr || metric->hist_count == 0) return 0.0;
  const double rank = q * static_cast<double>(metric->hist_count);
  std::uint64_t seen = 0;
  for (const auto& [bucket, count] : metric->buckets) {
    seen += count;
    if (static_cast<double>(seen) >= rank) {
      return static_cast<double>(obs::Histogram::bucket_upper_bound(bucket));
    }
  }
  return static_cast<double>(metric->hist_max);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  const obs::MetricValue* metric = snapshot.find(name);
  return metric == nullptr ? 0 : metric->counter;
}

// --- ZI sessions -------------------------------------------------------------

namespace {

/// The exchange configuration run_throughput_session derives from a
/// ThroughputConfig (src/market/throughput.cpp), so the phased driver runs
/// the shipped set-up; equivalence_test.cpp fails if the two drift apart.
MultiExchangeConfig zi_exchange_config(const ThroughputConfig& config) {
  MultiExchangeConfig mx;
  mx.shards = config.shards;
  mx.threads = config.threads;
  mx.bus.base_latency = config.base_latency;
  mx.bus.jitter = config.jitter;
  mx.bus.drop_probability = config.drop_probability;
  mx.bus.duplicate_probability = config.duplicate_probability;
  mx.server.domain =
      ValueDomain{Money::from_units(0), Money::from_units(config.value_high)};
  mx.server.retained_rounds = config.retained_rounds;
  mx.initial_cash = Money::from_units(
      static_cast<std::int64_t>(config.rounds + 1) * 10 + 1'000);
  mx.seed = config.seed;
  mx.adaptive_epochs = config.adaptive;
  mx.telemetry = config.telemetry;
  return mx;
}

}  // namespace

ZiSession::ZiSession(const DoubleAuctionProtocol& protocol,
                     const ThroughputConfig& config, Tracer* tracer)
    : config_(config), tracer_(tracer) {
  {
    Scope span(tracer_, "exchange.construct");
    exchange_ = std::make_unique<MultiServerExchange>(
        protocol, zi_exchange_config(config));
  }
  Scope span(tracer_, "exchange.populate");
  Rng values(Rng(config.seed ^ 0x5eedu).split());
  for (std::size_t i = 0; i < config.clients; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value = Money::from_units(
        values.uniform_int(config.value_low, config.value_high));
    TradingClient& trader = exchange_->add_trader(role, value);
    if (role == Side::kSeller && config.rounds > 1) {
      exchange_->grant_goods(trader.account(), config.rounds - 1);
    }
  }
  conserved_cash_ = exchange_->cash_total();
  conserved_goods_ = exchange_->goods_total();
}

std::vector<RoundId> ZiSession::step() {
  std::vector<RoundId> rounds;
  {
    Scope span(tracer_, "epoch.open");
    rounds = exchange_->open_rounds(config_.open_for);
  }
  Scope span(tracer_, "epoch.drive");
  exchange_->drive_to_quiescence();
  return rounds;
}

void ZiSession::tally(const std::vector<RoundId>& rounds) {
  for (std::size_t shard = 0; shard < rounds.size(); ++shard) {
    const AuctionServer& server = exchange_->server(shard);
    const Outcome* outcome = server.outcome_of(rounds[shard]);
    const SortedBook* book = server.ranked_of(rounds[shard]);
    gate(outcome != nullptr && book != nullptr,
         "round outcome or ranked book not retained");
    trades_ += outcome->trade_count();
    // ZI traders declare their true values, so the ranked book is the
    // true-value book of the round.
    const std::size_t bids = book->buyer_count() + book->seller_count();
    value_of_bid_.assign(bids, 0);
    for (const BidEntry& entry : book->buyers()) {
      value_of_bid_.at(entry.id.value()) = entry.value.micros();
    }
    for (const BidEntry& entry : book->sellers()) {
      value_of_bid_.at(entry.id.value()) = entry.value.micros();
    }
    for (const Fill& fill : outcome->fills()) {
      const std::int64_t value = value_of_bid_.at(fill.bid.value());
      realized_micros_ += fill.side == Side::kBuyer ? value : -value;
    }
    for (std::size_t rank = 1; rank <= book->efficient_trade_count(); ++rank) {
      efficient_micros_ +=
          (book->buyer_value(rank) - book->seller_value(rank)).micros();
    }
  }
}

void ZiSession::check_invariants() const {
  const BusStats bus = exchange_->bus_stats();
  gate(bus.sent + bus.duplicated ==
           bus.delivered + bus.dropped + bus.dead_lettered,
       "BusStats conservation: sent != delivered + dropped + dead_lettered "
       "- duplicated");
  gate(exchange_->book_stats().sorts_at_close == 0,
       "book.sorts_at_close != 0");
  // Deposits move into an escrow pseudo-account of the cash ledger, so
  // the ledger total is conserved, and traders' cash + the exchange's
  // cash + escrow-held deposits must add up to it.
  gate(exchange_->cash_total() == conserved_cash_, "cash not conserved");
  Money accounted = exchange_->escrow_total_held();
  for (const auto& trader : exchange_->traders()) {
    accounted += exchange_->cash_balance(trader->account());
  }
  for (std::size_t shard = 0; shard < exchange_->shard_count(); ++shard) {
    accounted +=
        exchange_->cash(shard).balance(IdentityRegistry::exchange_account());
  }
  gate(accounted == conserved_cash_, "cash + escrow-held not conserved");
  gate(exchange_->goods_total() == conserved_goods_, "goods not conserved");
  ValidationScratch scratch;
  for (std::size_t shard = 0; shard < exchange_->shard_count(); ++shard) {
    const AuctionServer& server = exchange_->server(shard);
    const std::optional<RoundId> latest = server.latest_round();
    gate(latest.has_value(), "shard completed no round");
    const Outcome* outcome = server.outcome_of(*latest);
    const SortedBook* book = server.ranked_of(*latest);
    gate(outcome != nullptr && book != nullptr,
         "latest round not retained");
    const ValidationErrors errors = validate_outcome(*book, *outcome, scratch);
    gate(errors.empty(), "latest round outcome fails core/validation");
  }
}

Counts ZiSession::counts() const {
  Counts counts;
  const BusStats bus = exchange_->bus_stats();
  counts.set("bus.sent", bus.sent);
  counts.set("bus.delivered", bus.delivered);
  counts.set("bus.duplicated", bus.duplicated);
  counts.set("bus.dropped", bus.dropped);
  counts.set("bus.dead_lettered", bus.dead_lettered);
  counts.set("bus.forwarded", bus.forwarded);
  counts.set("bus.mailbox_overflow", bus.mailbox_overflow);
  std::uint64_t max_delivered = 0;
  for (const BusStats& shard : exchange_->shard_bus_stats()) {
    max_delivered = std::max<std::uint64_t>(max_delivered, shard.delivered);
  }
  counts.set("bus.shard_max_delivered", max_delivered);
  const LiveBookStats book = exchange_->book_stats();
  counts.set("book.inserts", book.inserts);
  counts.set("book.entries_shifted", book.entries_shifted);
  counts.set("book.chunk_splits", book.chunk_splits);
  counts.set("book.tie_entries_permuted", book.tie_entries_permuted);
  counts.set("book.sorts_at_close", book.sorts_at_close);
  const EpochStats& epoch = exchange_->epoch_totals();
  counts.set("epoch.epochs", epoch.epochs);
  counts.set("epoch.barriers", epoch.barriers);
  counts.set("epoch.widened", epoch.widened);
  counts.set("epoch.injected", epoch.injected);
  std::uint64_t records = 0;
  std::uint64_t detail_bytes = 0;
  for (std::size_t shard = 0; shard < exchange_->shard_count(); ++shard) {
    for (const AuditRecord& record : exchange_->audit(shard).records()) {
      ++records;
      detail_bytes += record.detail.size();
    }
  }
  counts.set("audit.records", records);
  counts.set("audit.detail_bytes", detail_bytes);
  counts.set("trades", trades_);
  std::uint64_t accepted = 0;
  for (const auto& trader : exchange_->traders()) {
    accepted += trader->bids_accepted();
  }
  counts.set("bids.accepted", accepted);
  return counts;
}

Failures ZiSession::failures() const {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fills = 0;
  std::uint64_t settlement_failed = 0;
  for (const auto& trader : exchange_->traders()) {
    submitted += trader->identities().size();
    accepted += trader->bids_accepted();
    rejected += trader->bids_rejected();
    fills += trader->fills().size();
    settlement_failed += trader->settlement_failures();
  }
  // One attempt per declared identity (bid) and per fill notice
  // (settlement).  A lost bid was never acknowledged either way: dropped,
  // dead-lettered or overflowed on the bus.
  Failures failures;
  failures.attempted = submitted + fills;
  failures.by_cause["bids_rejected"] = rejected;
  failures.by_cause["bids_lost"] = submitted - accepted - rejected;
  failures.by_cause["settlement_failed"] = settlement_failed;
  return failures;
}

void ZiSession::close() {
  {
    Scope span(tracer_, "exchange.close");
    exchange_->close_market();
  }
  Scope span(tracer_, "obs.snapshot");
  if (const obs::SessionTelemetry* telemetry = exchange_->telemetry()) {
    snapshot_ = telemetry->merged_snapshot();
  }
}

void ZiSession::destroy() {
  Scope span(tracer_, "exchange.destroy");
  exchange_.reset();
}

ThroughputResult run_phased_zi(const DoubleAuctionProtocol& protocol,
                               const ThroughputConfig& config) {
  ZiSession session(protocol, config, nullptr);
  MultiServerExchange& exchange = session.exchange();
  ThroughputResult result;
  result.clients = config.clients;
  result.shards = exchange.shard_count();
  result.threads = exchange.thread_count();
  for (std::size_t r = 0; r < config.rounds; ++r) {
    session.tally(session.step());
    ++result.rounds;
  }
  result.trades = session.trades();
  for (const auto& trader : exchange.traders()) {
    result.bids_accepted += trader->bids_accepted();
  }
  result.sim_time = exchange.now();
  result.bus = exchange.bus_stats();
  result.shard_bus = exchange.shard_bus_stats();
  result.book = exchange.book_stats();
  result.epoch = exchange.epoch_totals();
  return result;
}

// --- Offline ------------------------------------------------------------------

ComparisonResult traced_comparison(
    const InstanceGenerator& generator,
    const std::vector<const DoubleAuctionProtocol*>& protocols,
    const ExperimentConfig& config, Tracer& tracer,
    std::uint64_t& bids_ranked) {
  // Per-protocol clearing streams, as in src/sim/experiment.cpp.
  constexpr std::uint64_t kStreamGamma = 0x9e3779b97f4a7c15ULL;
  ComparisonResult result;
  for (const DoubleAuctionProtocol* protocol : protocols) {
    ProtocolSummary summary;
    summary.name = protocol->name();
    result.protocols.push_back(std::move(summary));
  }
  static const char* const kClearSpan[] = {"protocols.tpd.clear",
                                           "protocols.pmd.clear"};
  SortedBook sorted;
  ValidationScratch scratch;
  Rng rng(config.seed);
  for (std::size_t run = 0; run < config.instances; ++run) {
    SingleUnitInstance instance;
    {
      Scope span(&tracer, "sim.generate");
      instance = generator(rng);
    }
    Rng pareto_rng = rng.split();
    const std::uint64_t clear_seed = rng();
    InstantiatedMarket market;
    {
      Scope span(&tracer, "core.rank");
      market = instantiate_truthful(instance);
      sorted.rebuild(market.book, pareto_rng);
    }
    bids_ranked += sorted.buyer_count() + sorted.seller_count();
    {
      Scope span(&tracer, "sim.score");
      result.pareto.add(efficient_surplus(sorted));
      result.pareto_trades.add(
          static_cast<double>(sorted.efficient_trade_count()));
    }
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      Outcome outcome;
      {
        Scope span(&tracer, kClearSpan[std::min<std::size_t>(p, 1)]);
        Rng clear_rng(clear_seed ^ (kStreamGamma * (p + 1)));
        outcome = protocols[p]->clear_sorted(sorted, clear_rng);
      }
      if (config.validate) {
        Scope span(&tracer, "core.validate");
        gate(validate_outcome(market.book, outcome, config.validation)
                 .empty(),
             "offline outcome fails validate_outcome");
      }
      Scope span(&tracer, "sim.score");
      const SurplusReport surplus = realized_surplus(outcome, market.truth);
      ProtocolSummary& summary = result.protocols[p];
      summary.total.add(surplus.total);
      summary.except_auctioneer.add(surplus.except_auctioneer);
      summary.auctioneer.add(surplus.auctioneer);
      summary.trades.add(static_cast<double>(outcome.trade_count()));
    }
  }
  return result;
}

}  // namespace perfbench
