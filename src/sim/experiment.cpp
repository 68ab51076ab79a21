#include "sim/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "common/worker_pool.h"

namespace fnda {

const ProtocolSummary& ComparisonResult::summary(
    const std::string& name) const {
  for (const ProtocolSummary& s : protocols) {
    if (s.name == name) return s;
  }
  throw std::out_of_range("ComparisonResult::summary: unknown protocol " +
                          name);
}

double ComparisonResult::ratio_total(const std::string& name) const {
  const double denom = pareto.mean();
  return denom == 0.0 ? 0.0 : summary(name).total.mean() / denom;
}

double ComparisonResult::ratio_except_auctioneer(
    const std::string& name) const {
  const double denom = pareto.mean();
  return denom == 0.0 ? 0.0 : summary(name).except_auctioneer.mean() / denom;
}

namespace {

constexpr std::uint64_t kStreamGamma = 0x9e3779b97f4a7c15ULL;

/// Per-worker state, reused across every instance the worker scores: the
/// drawn instance, its ranking (and whether it held equal values, the
/// next ranking's `expect_ties`), the validation lookups bound to that
/// ranking and the one outcome every protocol clears into.  After the
/// first instance has sized them, a fixed-count workload scores with no
/// allocation.  The legacy path also refills `book` (the OrderBook every
/// protocol re-sorts).  Cache-line aligned: the parallel runner keeps one
/// per worker side by side, and each is written on every instance.
struct alignas(64) ClearScratch {
  SingleUnitInstance instance;
  SortedBook sorted;
  bool ties = false;
  ValidationScratch validation;
  Outcome outcome;
  OrderBook book;
};

/// Scores `scratch.instance` into `result` (accumulators only; caller
/// provides the rng streams so sequential and parallel paths can differ in
/// how they derive them).
///
/// Shared-sort path: the truthful book is ranked once from `pareto_rng`
/// and the resulting SortedBook feeds the Pareto surplus AND every
/// protocol's `clear_into`; protocol p draws its internal randomness from
/// a stream split off `clear_seed` by index.  `pareto_rng` serves that one
/// ranking and is dropped after it, so `rank_truthful` may skip the
/// footnote-5 shuffle on a tie-free book, and may shuffle at once when the
/// worker's last book held ties: the ranking, hence every result, is the
/// same either way, at every thread count.  Legacy path: the Pareto book is
/// ranked the same way and every protocol re-sorts the truthful book from
/// an identical Rng(clear_seed) (common random numbers), exactly the
/// original pipeline.  Either way every outcome is validated against the
/// shared ranking: the invariants are functions of the declaration set,
/// which both paths clear.
void score_instance(const std::vector<const DoubleAuctionProtocol*>& protocols,
                    const ExperimentConfig& config, Rng& pareto_rng,
                    std::uint64_t clear_seed, ClearScratch& scratch,
                    ComparisonResult& result) {
  const SingleUnitInstance& instance = scratch.instance;
  scratch.ties =
      rank_truthful(instance, pareto_rng, scratch.sorted, scratch.ties);
  const SortedBook& true_book = scratch.sorted;
  result.pareto.add(efficient_surplus(true_book));
  result.pareto_trades.add(
      static_cast<double>(true_book.efficient_trade_count()));
  if (config.validate) scratch.validation.bind(true_book);
  if (!config.shared_sort) truthful_book(instance, scratch.book);

  Outcome& outcome = scratch.outcome;
  // Room for the most trades the book allows, so the reused fills never
  // grow after the first instance of a fixed-count workload.
  outcome.reserve(std::min(true_book.buyer_count(), true_book.seller_count()));
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    if (config.shared_sort) {
      Rng clear_rng(clear_seed ^ (kStreamGamma * (p + 1)));
      protocols[p]->clear_into(true_book, clear_rng, outcome);
    } else {
      Rng clear_rng(clear_seed);
      outcome = protocols[p]->clear(scratch.book, clear_rng);
    }
    if (config.validate) scratch.validation.expect(outcome, config.validation);
    const SurplusReport surplus = realized_surplus(outcome, instance);
    ProtocolSummary& summary = result.protocols[p];
    summary.total.add(surplus.total);
    summary.except_auctioneer.add(surplus.except_auctioneer);
    summary.auctioneer.add(surplus.auctioneer);
    summary.trades.add(static_cast<double>(outcome.trade_count()));
  }
}

ComparisonResult make_result_shell(
    const std::vector<const DoubleAuctionProtocol*>& protocols) {
  ComparisonResult result;
  result.protocols.reserve(protocols.size());
  for (const DoubleAuctionProtocol* protocol : protocols) {
    ProtocolSummary summary;
    summary.name = protocol->name();
    result.protocols.push_back(std::move(summary));
  }
  return result;
}

void merge_into(ComparisonResult& into, const ComparisonResult& from) {
  into.pareto.merge(from.pareto);
  into.pareto_trades.merge(from.pareto_trades);
  for (std::size_t p = 0; p < into.protocols.size(); ++p) {
    into.protocols[p].total.merge(from.protocols[p].total);
    into.protocols[p].except_auctioneer.merge(
        from.protocols[p].except_auctioneer);
    into.protocols[p].auctioneer.merge(from.protocols[p].auctioneer);
    into.protocols[p].trades.merge(from.protocols[p].trades);
  }
}

}  // namespace

ComparisonResult run_comparison_parallel(
    const InstanceGenerator& generator,
    const std::vector<const DoubleAuctionProtocol*>& protocols,
    const ExperimentConfig& config, std::size_t threads) {
  // The work is partitioned into a FIXED number of blocks (independent of
  // the thread count), each with its own accumulators; blocks are merged
  // in index order.  Floating-point accumulation order is therefore a
  // function of the instance count alone, making results bit-identical
  // for every thread count.
  const std::size_t blocks =
      std::min<std::size_t>(std::max<std::size_t>(config.instances, 1), 64);

  std::vector<ComparisonResult> partials;
  partials.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    partials.push_back(make_result_shell(protocols));
  }
  WorkerPool pool(std::min(resolve_threads(threads), blocks));
  // One scratch per worker, reused across every instance it runs.
  std::vector<ClearScratch> scratch(pool.lanes());
  pool.run_blocks(blocks, [&](std::size_t block, std::size_t worker) {
    const std::size_t begin = config.instances * block / blocks;
    const std::size_t end = config.instances * (block + 1) / blocks;
    ClearScratch& mine = scratch[worker];
    for (std::size_t run = begin; run < end; ++run) {
      // Counter-based derivation: independent of scheduling.
      Rng rng(config.seed ^ (kStreamGamma * (run + 1)));
      generator.draw_into(rng, mine.instance);
      Rng pareto_rng = rng.split();
      const std::uint64_t clear_seed = rng();
      score_instance(protocols, config, pareto_rng, clear_seed, mine,
                     partials[block]);
    }
  });

  ComparisonResult result = make_result_shell(protocols);
  for (const ComparisonResult& partial : partials) {
    merge_into(result, partial);
  }
  return result;
}

ComparisonResult run_comparison(
    const InstanceGenerator& generator,
    const std::vector<const DoubleAuctionProtocol*>& protocols,
    const ExperimentConfig& config) {
  ComparisonResult result = make_result_shell(protocols);
  ClearScratch scratch;

  Rng rng(config.seed);
  for (std::size_t run = 0; run < config.instances; ++run) {
    generator.draw_into(rng, scratch.instance);
    // The Pareto benchmark uses the true-value ranking (declared == true
    // here, since the experiment assumes no false-name bids, Section 7);
    // under shared_sort the same ranking also feeds every protocol.
    Rng pareto_rng = rng.split();
    const std::uint64_t clear_seed = rng();
    score_instance(protocols, config, pareto_rng, clear_seed, scratch,
                   result);
  }
  return result;
}

}  // namespace fnda
