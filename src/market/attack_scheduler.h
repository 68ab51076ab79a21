// Overlapped, warm-started attack planning against the live exchange.
//
// The adversarial co-simulation's control plane: a population of
// false-name attacker accounts lives inside a MultiServerExchange (as
// deferred traders), and this scheduler re-plans each attacker's
// strategy via the manipulation-search engine against the *current* book
// every round, without stalling the exchange:
//
//   * Snapshot at the barrier.  When a round completes, `plan_from`
//     copies each shard's retained ranked lanes (AuctionServer::ranked_of
//     — the SortedBook the round cleared from, tie order frozen; no
//     re-sort) plus the owner account of every entry, and wakes the
//     background worker pool to run the searches that need it.  The
//     exchange immediately proceeds to open and drive the next round;
//     search and clearing overlap in wall-clock time.
//   * Parked pool.  The searches are the blocks of a WorkerPool
//     `launch`: its workers start at the first `plan_from` and stay
//     parked between rounds, `join` waits for the round's last search,
//     and destroying the scheduler reaps them.  Each worker keeps its
//     scratch (an attacker's residual value lanes) from round to round.
//   * Bounded staleness.  A strategy computed from round r's book is
//     submitted for round r+1 (`apply_and_submit`, called after the
//     bounded drive and `join`).  Round 0 plays each attacker's initial
//     strategy.  Submissions run on the main thread in account order, so
//     every bus/RNG draw sequence — and therefore the exchange output —
//     is bit-identical for every exchange thread count AND every search
//     pool size.
//   * Warm starts.  Each attacker carries a persistent SearchState.
//     `warm_cache_hit` decides from the residual value lanes alone whether
//     the book is unchanged, revalidating in O(log n) via
//     account_position; only on a miss are the residual entry lanes and
//     a DeviationEvaluator built, and `find_best_deviation_warm` seeds
//     the prune floor with the prior best response's current utility.
//   * Unchanged attackers stay on the driver.  The snapshot pass also
//     bumps a shard's generation whenever a value in its lanes moved, and
//     collects each attacker's own (side, value) entries.  An attacker
//     whose last completed check saw the same generation and the same
//     own entries has the residual lanes, grid and config key behind its
//     cached result; if that result also revalidated then,
//     `warm_repeat_hit` hands it over inside `plan_from`, with no rebuild
//     and no second revalidation (its result could not differ).  The
//     first check after any change, or after a search, takes the pool
//     path above, so every counter reads as if each check had run there.
//     A round in which every attacker repeats wakes no worker, and with
//     a `grid_override` a planning round in which every search hits
//     allocates nothing.
//   * Shedding.  An optional per-round search budget caps the number of
//     searches; the rotating window (deterministic in the round index)
//     spreads planning across the population, and shed attackers simply
//     replay their previous strategy.
//
// Withdrawal is a first-class primitive of the candidate space: the
// engine's absence candidate is a full withdrawal, and any smaller
// declaration multiset is a partial one.  The scheduler counts plans that
// shrink the previously applied declaration set (`withdrawals`).
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/worker_pool.h"
#include "market/multi_exchange.h"
#include "mechanism/manipulation.h"
#include "mechanism/search_telemetry.h"
#include "obs/metrics.h"

namespace fnda {

struct AttackSchedulerConfig {
  /// Per-account search knobs.  Set `grid_override` for population-
  /// independent cost; `threads` is the per-search engine fan-out (keep 1
  /// — parallelism comes from the pool running whole accounts).
  SearchConfig search{};
  UtilityModel utility{};
  /// Base evaluation seed; each account uses seed + gamma * account id,
  /// fixed across rounds so warm cache keys stay comparable.
  std::uint64_t seed = 0x5eed;
  /// Warm-start wrapper on/off (off = cold engine every round, the
  /// speedup baseline).
  bool warm = true;
  /// Background search workers (0 -> 1), started at the first planning
  /// round (never more than that round's searches) and parked between
  /// rounds until the scheduler is destroyed.
  std::size_t pool_threads = 1;
  /// Searches per planning round; 0 = the whole population.
  std::size_t round_budget = 0;
};

class AttackScheduler {
 public:
  AttackScheduler(MultiServerExchange& exchange, AttackSchedulerConfig config);

  AttackScheduler(const AttackScheduler&) = delete;
  AttackScheduler& operator=(const AttackScheduler&) = delete;

  /// Registers an attacker account and switches its client to deferred
  /// submission.  Call in account order, before the first round.
  void add_attacker(TradingClient client);

  /// Snapshots each shard's cleared book for `rounds` (one RoundId per
  /// shard), plans the unchanged attackers on the calling thread and
  /// wakes the parked pool for the rest of this round's searches.
  /// Returns immediately; overlap the next round's drive, then `join`.
  void plan_from(const std::vector<RoundId>& rounds);

  /// Blocks until every in-flight search finishes and the workers are
  /// parked again, folds the counters (deterministically, in account
  /// order), and rethrows the exception of the first throwing search in
  /// this round's plan order, if any; the pool stays usable for the next
  /// `plan_from`.  Idempotent.
  void join();

  /// Installs each attacker's planned strategy and submits its latched
  /// round announcement, in account order on the calling thread.  Returns
  /// the number of declarations submitted.
  std::size_t apply_and_submit();

  /// Cumulative co-simulation counters (deterministic).
  const AttackSearchCounters& counters() const { return counters_; }
  /// Summed per-search wall time (steady clock; NOT deterministic).
  std::uint64_t search_wall_ns() const { return search_wall_ns_; }
  /// Σ max(0, best - truthful) over all searches run so far.
  double planned_gain_total() const { return planned_gain_total_; }
  /// Searches whose best response strictly beat truth-telling.
  std::uint64_t profitable_searches() const { return profitable_searches_; }

  /// Optional wall-clock search-latency histogram (microseconds),
  /// recorded at join() in account order.  Never digest-pin it.
  void bind_latency_histogram(obs::Histogram& hist) { latency_hist_ = &hist; }

 private:
  struct ShardSnapshot {
    std::vector<BidEntry> buyers;   // descending, tie order frozen
    std::vector<BidEntry> sellers;  // ascending, tie order frozen
    std::vector<AccountId> buyer_owner;
    std::vector<AccountId> seller_owner;
    /// Bumped by every `plan_from` whose value lanes differ from the
    /// previous plan's, or that an exception cut short; starts at 1, so
    /// 0 means "never checked" below.
    std::uint64_t generation = 1;
  };

  struct Attacker {
    explicit Attacker(TradingClient trader) : client(trader) {}

    TradingClient client;
    std::size_t shard = 0;
    SearchState state;
    /// Strategy to install at the next apply (initially the client's
    /// current strategy, i.e. truthful round 0).
    Strategy planned;
    std::size_t applied_declarations = 0;
    bool selected = false;          ///< searched this planning round
    std::uint64_t wall_ns = 0;      ///< this round's search wall time
    double gain = 0.0;              ///< this round's best - truthful
    bool profitable = false;
    std::uint64_t cold_runs = 0;    ///< warm=false mode bookkeeping
    /// This plan's entries of the attacker in its shard's lanes, buyers
    /// then sellers, each in rank order.
    std::vector<Declaration> own;
    /// `own` and the shard generation when the last check completed
    /// (generation 0: none has).  Equal again, they prove the residual
    /// value lanes, grid and config key behind `state` unchanged.
    std::vector<Declaration> checked_own;
    std::uint64_t checked_generation = 0;
  };

  /// What one pool worker keeps between rounds; cache-line aligned, as
  /// the workers' scratch sits side by side.
  struct alignas(64) Scratch {
    std::vector<Money> buyer_values;   // residual value lanes of the
    std::vector<Money> seller_values;  // attacker being searched
  };

  /// Copies one ranked lane into the snapshot, resolves its owners and
  /// hands each attacker's entries to its `own`.  Returns whether any
  /// value differs from the lane it replaced.
  bool snapshot_lane(std::size_t shard, Side side,
                     const std::vector<BidEntry>& lane,
                     std::vector<BidEntry>& copy,
                     std::vector<AccountId>& owner);
  /// The attacker's check on unchanged inputs, answered on the calling
  /// thread; false when it needs a pool search.
  bool repeat_on_driver(Attacker& attacker);
  void search_one(Attacker& attacker, Scratch& scratch);
  static void record(Attacker& attacker, const SearchResult& result,
                     std::chrono::steady_clock::time_point started);

  MultiServerExchange& exchange_;
  AttackSchedulerConfig config_;
  std::vector<Attacker> attackers_;  // account order
  /// Attacker index per account id; kNoAttacker for the rest.
  std::vector<std::uint32_t> attacker_of_;
  std::vector<ShardSnapshot> snapshots_;
  std::vector<std::size_t> plan_list_;  // attackers searched on the pool
  std::size_t plan_rounds_ = 0;
  bool inflight_ = false;

  AttackSearchCounters counters_{};
  std::uint64_t search_wall_ns_ = 0;
  double planned_gain_total_ = 0.0;
  std::uint64_t profitable_searches_ = 0;
  obs::Histogram* latency_hist_ = nullptr;

  /// Indexed by worker; lane 0 is the caller's, which runs no launched
  /// search (Debug builds rebuild a driver-side hit's lanes in it).
  std::vector<Scratch> scratch_;
  /// `pool_threads` background lanes plus the caller's.  Declared last,
  /// so it is destroyed first: a scheduler torn down with searches in
  /// flight finishes them (dropping their error) while everything they
  /// touch is still alive, then reaps the workers.
  WorkerPool pool_;
};

}  // namespace fnda
