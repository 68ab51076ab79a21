// MultiServerExchange: a sharded, multi-threaded deployment of the call
// market.
//
// The paper's Internet deployment target ("heavy traffic from millions of
// users") outgrows a single auctioneer process.  This harness partitions
// the identity space across N AuctionServers by owner-account hash —
// every identity an account mints trades on that account's shard — and,
// unlike the PR 2 logical partition, gives each shard a *complete*
// private world: its own EventQueue, MessageBus (envelope slab included),
// identity registry, ledgers, escrow, settlement engine, and audit log.
// Nothing mutable is shared on the hot path; shards share one
// AddressSpace (global names and owners) and are driven to quiescence by
// an EpochDriver on `threads` workers.
//
// Determinism: results are bit-identical for every `threads` value —
// per-shard RNG streams and strided id namespaces (messages and
// identities) remove every source of cross-thread nondeterminism.  With
// shards == 1 this is the single-server call market; its output is pinned
// RNG draw for RNG draw by a recorded digest
// (ParallelExchangeTest.SingleShardMatchesRecordedDigest).
//
// Every trader lives in its account's home shard's TraderPopulation and
// is wired to that shard's server, so no message crosses shards: shards
// run to quiescence independently within a drive, and a cross-shard send
// throws at the sender.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "market/address_space.h"
#include "market/client.h"
#include "market/epoch.h"
#include "market/runtime_config.h"
#include "market/server.h"
#include "obs/telemetry.h"

namespace fnda {

struct MultiExchangeConfig {
  /// Number of independent auction servers (>= 1).
  std::size_t shards = 4;
  /// Worker threads driving the shards: 0 = hardware concurrency; values
  /// above `shards` are clamped (a shard is owned by one thread).  Every
  /// setting produces bit-identical results.
  std::size_t threads = 1;
  /// Must stay true: every drive runs each shard to its bound in one
  /// parallel region, and the exchange throws if this is false.  Kept
  /// only because the benchmark driver still sets it (ROADMAP item 1
  /// stops setting it).
  bool adaptive_epochs = true;
  BusConfig bus{};
  ServerConfig server{};
  ClientConfig client{};
  /// Cash granted to each trader account on creation.
  Money initial_cash = Money::from_units(1'000);
  std::uint64_t seed = 1;
  /// Session telemetry (on by default; `enabled = false` wires nothing —
  /// every component keeps null instrument pointers, the runtime baseline
  /// the overhead bench compares against).
  obs::TelemetryOptions telemetry{};
};

class MultiServerExchange {
 public:
  /// `protocol` must outlive the exchange (it clears every shard).
  explicit MultiServerExchange(const DoubleAuctionProtocol& protocol,
                               MultiExchangeConfig config = {});

  /// Adds a truthful trader to the population of the shard its account
  /// hashes to.  Sellers are endowed with one unit of the good.
  TradingClient& add_trader(Side role, Money true_value);
  TradingClient& add_trader(Side role, Money true_value, Strategy strategy);

  /// The shard an account's identities trade on.
  std::size_t shard_of(AccountId account) const;

  /// Opens one round on every shard, drives all shards to quiescence on
  /// the configured worker threads, and returns the per-shard round ids.
  std::vector<RoundId> run_round(SimTime open_for = SimTime::millis(100));

  // --- phased round control (adversarial co-simulation) -----------------
  // run_round == open_rounds + drive_to_quiescence.  The co-simulation
  // splits the drive instead: open_rounds, then drive_until with bounds
  // strictly before each shard's round close (honest traffic clears while
  // attack searches overlap on background threads), then deferred attacker
  // submissions, then drive_to_quiescence to close the round.
  /// Opens one round per shard without driving; returns per-shard ids.
  /// Applies any pending runtime-config change first (round boundaries are
  /// the only place config generations advance — see RuntimeConfig), and
  /// skips paused shards, returning RoundId::invalid() in their slots.
  std::vector<RoundId> open_rounds(SimTime open_for);
  /// Bounded drive: shard `s` executes only events strictly before
  /// `bounds[s]`; later events stay queued.  Folds into epoch_totals()
  /// but leaves last_drive() alone (it reports full drives).
  EpochStats drive_until(const std::vector<SimTime>& bounds);
  /// Drives every shard to quiescence (the tail of run_round).
  void drive_to_quiescence();

  /// Ends the trading day: every remaining deposit is returned to the
  /// account behind its identity (confiscated deposits are already gone).
  /// Returns the total refunded.  Throws std::logic_error while a round
  /// is still open on any shard.
  Money close_market();

  /// Settlement-truth utility of a trader, read off its home shard:
  /// change in cash plus change in valued goods (at most one unit
  /// counts), relative to its endowment.  Confiscated deposits and
  /// cancelled trades are all reflected here.
  double settled_utility(const TradingClient& client) const;

  // --- ZI session set-up and digest (throughput, live attack, console) --
  /// Cash covering `rounds` rounds of default deposits (10 each) for
  /// `identities_per_round` fresh identities per round.
  static Money zi_endowment(std::size_t rounds,
                            std::size_t identities_per_round = 1);
  /// Adds `count` truthful ZI traders, buyer/seller alternating, valued
  /// uniformly in [value_low, value_high] units off the stream
  /// Rng(config().seed ^ 0x5eed).split(); sellers get a unit per round.
  void add_zi_traders(std::size_t count, std::int64_t value_low,
                      std::int64_t value_high, std::size_t rounds);
  /// FNV-1a folds one round id per shard (as open_rounds returned) into
  /// `digest`: shard, round id, trade count, then each fill's side,
  /// identity and price; paused or evicted rounds are skipped.  Returns
  /// the trades folded.
  std::size_t fold_rounds(std::uint64_t& digest,
                          const std::vector<RoundId>& rounds) const;
  /// FNV-1a folds the merged ledger totals: cash, goods, escrow held.
  void fold_ledger_totals(std::uint64_t& digest) const;

  // --- operator control plane (console / future gateway) ----------------
  /// Runtime-versioned server config.  stage() changes through it at any
  /// time; they take effect at the next open_rounds, on the driver
  /// thread, so determinism is untouched by thread count.
  RuntimeConfig& runtime_config() { return runtime_config_; }
  const RuntimeConfig& runtime_config() const { return runtime_config_; }

  /// Pauses a shard: subsequent open_rounds skip it (its slot reports
  /// RoundId::invalid()).  In-flight rounds are unaffected — to drain,
  /// pause and then drive_to_quiescence.  Idempotent.
  void pause_shard(std::size_t shard);
  void resume_shard(std::size_t shard);
  bool shard_paused(std::size_t shard) const { return paused_[shard]; }
  std::size_t paused_count() const;

  std::size_t shard_count() const { return shards_.size(); }
  /// The clearing protocol the exchange was constructed with (the
  /// co-simulation evaluates deviations against it).
  const DoubleAuctionProtocol& protocol() const { return *protocol_; }
  /// The resolved construction config (domain, latencies, ...).
  const MultiExchangeConfig& config() const { return config_; }
  /// Resolved worker count (after 0 -> hardware, clamp to shards).
  std::size_t thread_count() const { return pool_->lanes(); }
  AuctionServer& server(std::size_t shard) { return *shards_[shard].server; }
  const AuctionServer& server(std::size_t shard) const {
    return *shards_[shard].server;
  }
  /// Rounds cleared across all shards.
  std::size_t rounds_completed() const;

  // --- per-shard worlds -------------------------------------------------
  EventQueue& queue(std::size_t shard) { return shards_[shard].queue; }
  MessageBus& bus(std::size_t shard) { return *shards_[shard].bus; }
  IdentityRegistry& registry(std::size_t shard) {
    return shards_[shard].registry;
  }
  CashLedger& cash(std::size_t shard) { return shards_[shard].cash; }
  GoodsLedger& goods(std::size_t shard) { return shards_[shard].goods; }
  EscrowService& escrow(std::size_t shard) { return *shards_[shard].escrow; }
  AuditLog& audit(std::size_t shard) { return shards_[shard].audit; }

  // --- merged views (session-end reporting; never on the hot path) -----
  /// Latest shard clock (every shard quiesces at its own last event).
  SimTime now() const;
  /// Per-shard transport counters merged; conservation holds here.
  BusStats bus_stats() const;
  std::vector<BusStats> shard_bus_stats() const;
  /// Per-shard incremental-ranking work counters merged (see
  /// LiveBookStats; sorts_at_close must stay 0 across every shard).
  LiveBookStats book_stats() const;
  /// All shards' audit records, stably merged by (timestamp, shard).
  std::vector<AuditRecord> merged_audit() const;
  /// The last `n` records of merged_audit(), in the same order, read
  /// backwards off the shard logs without materializing the merge.
  std::vector<AuditRecord> merged_audit_tail(std::size_t n) const;
  std::size_t audit_count(AuditKind kind) const;
  Money cash_balance(AccountId account) const;
  Money cash_total() const;
  std::size_t goods_units(AccountId account) const;
  std::size_t goods_total() const;
  Money escrow_total_held() const;

  /// Routed to the account's home-shard ledgers.
  void grant_cash(AccountId account, Money amount);
  void grant_goods(AccountId account, std::size_t units);

  /// Every trader in add order.  Iterating yields `const TradingClient*`,
  /// so range-for elements support `->` and `*`.
  class TraderList {
   public:
    class iterator {
     public:
      explicit iterator(std::deque<TradingClient>::const_iterator at)
          : at_(at) {}
      const TradingClient* operator*() const { return &*at_; }
      iterator& operator++() {
        ++at_;
        return *this;
      }
      bool operator==(const iterator& other) const { return at_ == other.at_; }

     private:
      std::deque<TradingClient>::const_iterator at_;
    };

    explicit TraderList(const std::deque<TradingClient>& traders)
        : traders_(&traders) {}
    iterator begin() const { return iterator(traders_->begin()); }
    iterator end() const { return iterator(traders_->end()); }
    std::size_t size() const { return traders_->size(); }

   private:
    const std::deque<TradingClient>* traders_;
  };
  TraderList traders() const { return TraderList(traders_); }
  /// Epoch counters from the most recent drive.
  const EpochStats& last_drive() const { return last_drive_; }
  /// Epoch counters accumulated across every drive of this exchange —
  /// the session-level barrier-crossing record the bench reports.
  const EpochStats& epoch_totals() const { return epoch_totals_; }

  /// Session telemetry, or nullptr when the config disabled it.  Merged
  /// snapshots/traces are deterministic only on a quiescent exchange
  /// (between run_round calls).
  obs::SessionTelemetry* telemetry() { return telemetry_.get(); }
  const obs::SessionTelemetry* telemetry() const { return telemetry_.get(); }

 private:
  /// One shard's complete private world.  Lives in a deque so addresses
  /// stay stable while shards are appended during construction.
  struct Shard {
    EventQueue queue;
    std::unique_ptr<MessageBus> bus;
    IdentityRegistry registry;
    CashLedger cash;
    GoodsLedger goods;
    std::unique_ptr<EscrowService> escrow;
    std::unique_ptr<SettlementEngine> settlement;
    AuditLog audit;
    std::unique_ptr<AuctionServer> server;
    std::unique_ptr<TraderPopulation> traders;
  };

  MultiExchangeConfig config_;
  const DoubleAuctionProtocol* protocol_ = nullptr;
  RuntimeConfig runtime_config_;
  std::vector<bool> paused_;
  /// Monotone open_rounds counter — the stamp runtime-config generations
  /// are born at (a pure function of the command sequence).
  std::uint64_t next_round_stamp_ = 0;
  /// Declared before the shards so it outlives every component holding
  /// instrument pointers into it.
  std::unique_ptr<obs::SessionTelemetry> telemetry_;
  /// Names and owners shared by every shard's bus; outlives the shards.
  std::unique_ptr<AddressSpace> addresses_ = std::make_unique<AddressSpace>();
  std::deque<Shard> shards_;
  /// The shard drive's lanes (config.threads, resolved and clamped to
  /// the shard count); outlives the driver that borrows it.
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<EpochDriver> driver_;
  /// Views into the shard populations, in add order; a deque so the
  /// references add_trader returns stay valid.
  std::deque<TradingClient> traders_;
  EpochStats last_drive_;
  EpochStats epoch_totals_;
  std::uint64_t next_account_ = 1;  // 0 is the exchange
  std::uint64_t next_client_ = 0;
};

}  // namespace fnda
