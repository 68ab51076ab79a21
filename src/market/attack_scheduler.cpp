#include "market/attack_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace fnda {
namespace {

constexpr std::uint64_t kAccountGamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint32_t kNoAttacker = std::numeric_limits<std::uint32_t>::max();
const std::vector<BidEntry> kNoEntries;

/// Residual view of one ranked lane: its entries not owned by `account`,
/// order preserved (erasing entries keeps a sorted lane sorted and the
/// frozen tie order intact).
void residual_values(const std::vector<BidEntry>& lane,
                     const std::vector<AccountId>& owner, AccountId account,
                     std::vector<Money>& out) {
  out.clear();
  for (std::size_t i = 0; i < lane.size(); ++i) {
    if (owner[i] != account) out.push_back(lane[i].value);
  }
}

std::vector<BidEntry> residual_entries(const std::vector<BidEntry>& lane,
                                       const std::vector<AccountId>& owner,
                                       AccountId account) {
  std::vector<BidEntry> out;
  out.reserve(lane.size());
  for (std::size_t i = 0; i < lane.size(); ++i) {
    if (owner[i] != account) out.push_back(lane[i]);
  }
  return out;
}

}  // namespace

AttackScheduler::AttackScheduler(MultiServerExchange& exchange,
                                 AttackSchedulerConfig config)
    : exchange_(exchange),
      config_(std::move(config)),
      pool_(std::max<std::size_t>(config_.pool_threads, 1) + 1) {
  snapshots_.resize(exchange_.shard_count());
  scratch_.resize(pool_.lanes());
}

void AttackScheduler::add_attacker(TradingClient client) {
  if (inflight_) {
    throw std::logic_error("add_attacker: searches in flight");
  }
  client.set_deferred(true);
  const auto index = static_cast<std::uint32_t>(attackers_.size());
  Attacker& attacker = attackers_.emplace_back(client);
  attacker.shard = exchange_.shard_of(client.account());
  attacker.planned = Strategy::truthful(client.role(), client.true_value());
  // A plan holds at most max_declarations entries of the attacker; sized
  // here, so that no planning round allocates for them.
  const std::size_t entries =
      std::max<std::size_t>(config_.search.max_declarations, 1);
  attacker.own.reserve(entries);
  attacker.checked_own.reserve(entries);
  const std::uint64_t account = client.account().value();
  if (attacker_of_.size() <= account) {
    attacker_of_.resize(account + 1, kNoAttacker);
  }
  attacker_of_[account] = index;
}

void AttackScheduler::plan_from(const std::vector<RoundId>& rounds) {
  join();
  if (rounds.size() != exchange_.shard_count()) {
    throw std::invalid_argument("plan_from: one RoundId per shard required");
  }
  // Snapshot: copy the retained ranked lanes (already sorted, tie order
  // frozen at clearing), resolve each entry's owner account so every
  // attacker can subtract its own declarations from the view, and note
  // whether the shard's value lanes moved since the previous plan.
  for (Attacker& attacker : attackers_) attacker.own.clear();
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    ShardSnapshot& snap = snapshots_[s];
    // Bumped up front and put back once both lanes compared equal, so a
    // snapshot cut short by an exception never vouches for its lanes.
    const std::uint64_t seen = snap.generation++;
    // Evicted/unknown rounds plan on an empty book.
    const SortedBook* ranked = exchange_.server(s).ranked_of(rounds[s]);
    const bool buyers_moved =
        snapshot_lane(s, Side::kBuyer,
                      ranked != nullptr ? ranked->buyers() : kNoEntries,
                      snap.buyers, snap.buyer_owner);
    const bool sellers_moved =
        snapshot_lane(s, Side::kSeller,
                      ranked != nullptr ? ranked->sellers() : kNoEntries,
                      snap.sellers, snap.seller_owner);
    if (!buyers_moved && !sellers_moved) snap.generation = seen;
  }

  // Size every lane's scratch for the largest lanes here, whichever
  // worker ends up claiming which search.
  std::size_t most_buyers = 0;
  std::size_t most_sellers = 0;
  for (const ShardSnapshot& snap : snapshots_) {
    most_buyers = std::max(most_buyers, snap.buyers.size());
    most_sellers = std::max(most_sellers, snap.sellers.size());
  }
  for (Scratch& scratch : scratch_) {
    scratch.buyer_values.reserve(most_buyers);
    scratch.seller_values.reserve(most_sellers);
  }

  // Deterministic shedding: a rotating budget window over the account-
  // ordered population, a pure function of the planning-round index.
  // Each planned attacker whose inputs did not move is answered here;
  // the rest go to the pool.
  plan_list_.clear();
  const std::size_t population = attackers_.size();
  for (Attacker& attacker : attackers_) attacker.selected = false;
  const std::size_t budget =
      config_.round_budget == 0
          ? population
          : std::min(config_.round_budget, population);
  if (population > 0) {
    const std::size_t start = (plan_rounds_ * budget) % population;
    for (std::size_t k = 0; k < budget; ++k) {
      const std::size_t i = (start + k) % population;
      attackers_[i].selected = true;
      if (!repeat_on_driver(attackers_[i])) plan_list_.push_back(i);
    }
  }
  counters_.shed += population - budget;
  ++counters_.rounds;
  ++plan_rounds_;

  inflight_ = true;
  if (plan_list_.empty()) return;  // an all-hit round wakes no worker
  pool_.launch(plan_list_.size(), [this](std::size_t slot, std::size_t w) {
    search_one(attackers_[plan_list_[slot]], scratch_[w]);
  });
}

bool AttackScheduler::snapshot_lane(std::size_t shard, Side side,
                                    const std::vector<BidEntry>& lane,
                                    std::vector<BidEntry>& copy,
                                    std::vector<AccountId>& owner) {
  const IdentityRegistry& registry = exchange_.registry(shard);
  bool moved = lane.size() != copy.size();
  copy.resize(lane.size());
  owner.resize(lane.size());
  for (std::size_t i = 0; i < lane.size(); ++i) {
    const BidEntry& entry = lane[i];
    moved |= copy[i].value != entry.value;
    copy[i] = entry;
    owner[i] = registry.owner(entry.identity);
    const std::uint64_t account = owner[i].value();
    if (account >= attacker_of_.size() ||
        attacker_of_[account] == kNoAttacker) {
      continue;
    }
    Attacker& attacker = attackers_[attacker_of_[account]];
    if (attacker.shard == shard) {
      attacker.own.push_back(Declaration{side, entry.value});
    }
  }
  return moved;
}

bool AttackScheduler::repeat_on_driver(Attacker& attacker) {
  // Same shard generation: the value lanes equal those of the last
  // completed check.  Same own entries on top: so do the residual lanes,
  // and with them the grid and config key (role, true value, seed,
  // protocol and domain are fixed for the exchange's lifetime).
  if (attacker.checked_generation != snapshots_[attacker.shard].generation ||
      attacker.own != attacker.checked_own) {
    return false;
  }
  const auto started = std::chrono::steady_clock::now();
  const SearchResult* hit = warm_repeat_hit(attacker.state);
  if (hit == nullptr) return false;
#ifndef NDEBUG
  const ShardSnapshot& snap = snapshots_[attacker.shard];
  Scratch& scratch = scratch_.front();
  residual_values(snap.buyers, snap.buyer_owner, attacker.client.account(),
                  scratch.buyer_values);
  residual_values(snap.sellers, snap.seller_owner, attacker.client.account(),
                  scratch.seller_values);
  assert(scratch.buyer_values == attacker.state.buyer_values);
  assert(scratch.seller_values == attacker.state.seller_values);
#endif
  record(attacker, *hit, started);
  return true;
}

void AttackScheduler::search_one(Attacker& attacker, Scratch& scratch) {
  const auto started = std::chrono::steady_clock::now();
  const ShardSnapshot& snap = snapshots_[attacker.shard];
  const AccountId account = attacker.client.account();
  const Side role = attacker.client.role();
  const Money true_value = attacker.client.true_value();
  const DoubleAuctionProtocol& protocol = exchange_.protocol();
  const ValueDomain& domain = exchange_.config().server.domain;

  EvalConfig eval;
  eval.replicates = 1;
  // Per-account, round-stable stream: the warm cache key embeds the seed,
  // so a stable seed is what lets an unchanged book hit the cache.
  eval.seed = config_.seed + kAccountGamma * account.value();
  eval.utility = config_.utility;

  const SearchResult* hit = nullptr;
  if (config_.warm) {
    residual_values(snap.buyers, snap.buyer_owner, account,
                    scratch.buyer_values);
    residual_values(snap.sellers, snap.seller_owner, account,
                    scratch.seller_values);
    hit = warm_cache_hit(protocol, domain, role, true_value,
                         scratch.buyer_values, scratch.seller_values, eval,
                         config_.search, attacker.state);
  }
  SearchResult searched;
  if (hit == nullptr) {
    const DeviationEvaluator evaluator(
        protocol, domain, role, true_value,
        residual_entries(snap.buyers, snap.buyer_owner, account),
        residual_entries(snap.sellers, snap.seller_owner, account), eval);
    if (config_.warm) {
      searched =
          find_best_deviation_warm(evaluator, config_.search, attacker.state);
    } else {
      searched = find_best_deviation(evaluator, config_.search);
      ++attacker.cold_runs;
    }
  }
  record(attacker, hit != nullptr ? *hit : searched, started);
  attacker.checked_generation = snap.generation;
  attacker.checked_own = attacker.own;
}

void AttackScheduler::record(Attacker& attacker, const SearchResult& result,
                             std::chrono::steady_clock::time_point started) {
  attacker.planned = result.best_strategy;
  attacker.gain =
      std::max(0.0, result.best_utility - result.truthful_utility);
  attacker.profitable = result.profitable();
  attacker.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
}

void AttackScheduler::join() {
  if (!inflight_) return;
  inflight_ = false;
  pool_.wait();
  // Fold in account order — sums of per-attacker values are independent
  // of which pool worker ran which search, so every counter here is
  // deterministic for any pool size (wall time and latency excepted).
  for (const Attacker& attacker : attackers_) {
    if (!attacker.selected) continue;
    ++counters_.searches;
    search_wall_ns_ += attacker.wall_ns;
    planned_gain_total_ += attacker.gain;
    if (attacker.profitable) ++profitable_searches_;
    if (latency_hist_ != nullptr) {
      latency_hist_->record(
          static_cast<std::int64_t>(attacker.wall_ns / 1'000));
    }
  }
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_seeded = 0;
  std::uint64_t cold_runs = 0;
  for (const Attacker& attacker : attackers_) {
    warm_hits += attacker.state.warm_hits;
    warm_seeded += attacker.state.warm_seeded;
    cold_runs += attacker.state.cold_runs + attacker.cold_runs;
  }
  counters_.warm_hits = warm_hits;
  counters_.warm_seeded = warm_seeded;
  counters_.cold_runs = cold_runs;
}

std::size_t AttackScheduler::apply_and_submit() {
  if (inflight_) {
    throw std::logic_error("apply_and_submit: join() the searches first");
  }
  std::size_t submitted = 0;
  for (Attacker& attacker : attackers_) {
    if (attacker.planned.declarations.size() < attacker.applied_declarations) {
      ++counters_.withdrawals;
    }
    attacker.client.set_strategy(attacker.planned);
    attacker.applied_declarations = attacker.planned.declarations.size();
    submitted += attacker.client.submit_pending();
  }
  return submitted;
}

}  // namespace fnda
