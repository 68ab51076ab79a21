#include "market/attack_scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace fnda {
namespace {

constexpr std::uint64_t kAccountGamma = 0x9e3779b97f4a7c15ULL;

}  // namespace

AttackScheduler::AttackScheduler(MultiServerExchange& exchange,
                                 AttackSchedulerConfig config)
    : exchange_(exchange), config_(std::move(config)) {
  if (config_.pool_threads == 0) config_.pool_threads = 1;
  snapshots_.resize(exchange_.shard_count());
}

AttackScheduler::~AttackScheduler() {
  try {
    join();
  } catch (...) {
    // Worker exceptions surface at the explicit join(); a scheduler torn
    // down with searches in flight only needs the threads reaped.
  }
}

void AttackScheduler::add_attacker(TradingClient client) {
  if (inflight_) {
    throw std::logic_error("add_attacker: searches in flight");
  }
  client.set_deferred(true);
  Attacker& attacker = attackers_.emplace_back(client);
  attacker.shard = exchange_.shard_of(client.account());
  attacker.planned = Strategy::truthful(client.role(), client.true_value());
}

void AttackScheduler::plan_from(const std::vector<RoundId>& rounds) {
  join();
  if (rounds.size() != exchange_.shard_count()) {
    throw std::invalid_argument("plan_from: one RoundId per shard required");
  }
  // Snapshot: copy the retained ranked lanes (already sorted, tie order
  // frozen at clearing) and resolve each entry's owner account so every
  // attacker can subtract its own declarations from the view.
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    ShardSnapshot& snap = snapshots_[s];
    snap.buyers.clear();
    snap.sellers.clear();
    snap.buyer_owner.clear();
    snap.seller_owner.clear();
    const SortedBook* ranked = exchange_.server(s).ranked_of(rounds[s]);
    if (ranked == nullptr) continue;  // evicted/unknown: plan on empty book
    const IdentityRegistry& registry = exchange_.registry(s);
    snap.buyers = ranked->buyers();
    snap.sellers = ranked->sellers();
    snap.buyer_owner.reserve(snap.buyers.size());
    for (const BidEntry& entry : snap.buyers) {
      snap.buyer_owner.push_back(registry.owner(entry.identity));
    }
    snap.seller_owner.reserve(snap.sellers.size());
    for (const BidEntry& entry : snap.sellers) {
      snap.seller_owner.push_back(registry.owner(entry.identity));
    }
  }

  // Deterministic shedding: a rotating budget window over the account-
  // ordered population, a pure function of the planning-round index.
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
      plan_list_.push_back(i);
    }
  }
  counters_.shed += population - budget;
  ++counters_.rounds;
  ++plan_rounds_;

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(config_.pool_threads,
                                        std::max<std::size_t>(
                                            plan_list_.size(), 1)));
  errors_.assign(workers, nullptr);
  next_.store(0, std::memory_order_relaxed);
  inflight_ = true;
  pool_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool_.emplace_back([this, w] {
      try {
        for (;;) {
          const std::size_t slot =
              next_.fetch_add(1, std::memory_order_relaxed);
          if (slot >= plan_list_.size()) return;
          search_one(attackers_[plan_list_[slot]]);
        }
      } catch (...) {
        errors_[w] = std::current_exception();
      }
    });
  }
}

void AttackScheduler::search_one(Attacker& attacker) {
  const auto started = std::chrono::steady_clock::now();
  const ShardSnapshot& snap = snapshots_[attacker.shard];
  const AccountId account = attacker.client.account();

  // Residual view: the shard's ranked lanes minus this account's own
  // declarations, order preserved (erasing entries keeps a sorted lane
  // sorted and the frozen tie order intact).
  std::vector<BidEntry> residual_buyers;
  residual_buyers.reserve(snap.buyers.size());
  for (std::size_t i = 0; i < snap.buyers.size(); ++i) {
    if (snap.buyer_owner[i] == account) continue;
    residual_buyers.push_back(snap.buyers[i]);
  }
  std::vector<BidEntry> residual_sellers;
  residual_sellers.reserve(snap.sellers.size());
  for (std::size_t j = 0; j < snap.sellers.size(); ++j) {
    if (snap.seller_owner[j] == account) continue;
    residual_sellers.push_back(snap.sellers[j]);
  }

  EvalConfig eval;
  eval.replicates = 1;
  // Per-account, round-stable stream: the warm cache key embeds the seed,
  // so a stable seed is what lets an unchanged book hit the cache.
  eval.seed = config_.seed + kAccountGamma * account.value();
  eval.utility = config_.utility;
  const DeviationEvaluator evaluator(
      exchange_.protocol(), exchange_.config().server.domain,
      attacker.client.role(), attacker.client.true_value(), residual_buyers,
      residual_sellers, eval);

  const SearchResult result =
      config_.warm ? find_best_deviation_warm(evaluator, config_.search,
                                              attacker.state)
                   : find_best_deviation(evaluator, config_.search);
  if (!config_.warm) ++attacker.cold_runs;

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
  for (std::thread& thread : pool_) thread.join();
  pool_.clear();
  inflight_ = false;
  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
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
