// Deviation evaluation and best-response search.
//
// This is the machinery behind the paper's Section 4 examples and the
// empirical incentive-compatibility results: fix an instance, pick one
// account (the manipulator), hold everyone else truthful, and ask whether
// any alternative strategy — misreporting, abstaining, or submitting
// false-name bids on either side — beats truth-telling.
//
// Two search paths are provided.  `find_best_deviation` is the parallel
// pruned engine: it partitions the canonical candidate space into
// deterministic blocks, evaluates them on worker threads over the shared
// residual rankings, skips whole subtrees whose price-bracket utility
// bound cannot beat the incumbent, and obtains most positions through the
// protocols' O(log n) `account_position` fast path instead of a full
// clearing.  `find_best_deviation_serial` is the original exhaustive
// reference implementation, kept verbatim as the equivalence oracle: for
// any thread count the engine returns the same best strategy, the same
// utilities bit-for-bit, and the same considered-strategy count.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/instance.h"
#include "core/protocol.h"
#include "mechanism/strategy.h"
#include "mechanism/utility.h"

namespace fnda {

/// Which account deviates: the `index`-th agent on `role`'s side of the
/// instance (its truthful bid is removed and replaced by the strategy).
struct ManipulatorSpec {
  Side role;
  std::size_t index;
};

/// Evaluation parameters.
struct EvalConfig {
  /// Outcome replicates averaged per strategy.  Protocols are deterministic
  /// given the rng stream, and all strategies share the same streams
  /// (common random numbers), so 1 suffices for tie-free instances; use
  /// more for randomized protocols or books with ties.
  std::size_t replicates = 1;
  std::uint64_t seed = 0x5eed;
  UtilityModel utility{};
};

/// Evaluates strategies for one (protocol, instance, manipulator) triple.
///
/// Sort-once: the residual book (everyone except the manipulator, all
/// truthful) is identical for every strategy, so its random-tie ranking is
/// computed ONCE per replicate at construction.  Evaluating a strategy
/// then merge-inserts the manipulator's declarations into a copy of that
/// ranking — each at a uniformly random position within its equal-value
/// run, reproducing the paper's footnote-5 tie semantics — and hands the
/// already-ranked book to `clear_sorted`.  Per strategy that is O(n)
/// instead of the naive O(n log n) rebuild-and-sort.
///
/// Thread-safety contract: `evaluate` is const but NOT thread-safe — it
/// reuses the mutable `merged_*_` scratch buffers below, a deliberate
/// trade (no per-call allocation on the hot path) that makes concurrent
/// `evaluate` calls on one instance a data race.  Everything else
/// (`replicates_`, the config, the residual rankings) is immutable after
/// construction, so parallel callers have two safe options: clone the
/// evaluator per worker (construction re-derives identical rankings from
/// the same seed), or — as the search engine in this module does — share
/// one evaluator read-only via `residual_rankings()` and keep all mutable
/// merge state in per-worker scratch.
class DeviationEvaluator {
 public:
  DeviationEvaluator(const DoubleAuctionProtocol& protocol,
                     SingleUnitInstance instance, ManipulatorSpec manipulator,
                     EvalConfig config = {});

  /// Live-book entry point: adopts a residual ranking that is ALREADY
  /// rank-ordered (buyers descending, sellers ascending, tie order frozen
  /// by the caller — e.g. a retained round's SortedBook with the
  /// manipulator's own entries removed) instead of re-sorting an
  /// instance.  No O(n log n) work: the lanes are copied and re-numbered
  /// with the canonical instance id scheme, and the tie order is shared
  /// by every replicate (the snapshot froze it; common random numbers
  /// still vary the insertion/clearing streams per replicate).  The
  /// synthesized instance appends the manipulator's true value after the
  /// residual values, so `candidate_values` and every accessor behave as
  /// if the evaluator had been built from that instance.
  DeviationEvaluator(const DoubleAuctionProtocol& protocol, ValueDomain domain,
                     Side role, Money true_value,
                     const std::vector<BidEntry>& residual_buyers,
                     const std::vector<BidEntry>& residual_sellers,
                     EvalConfig config = {});

  /// Mean utility of the manipulator when it plays `strategy` and everyone
  /// else bids truthfully.  Const but not thread-safe; see the class
  /// comment.
  double evaluate(const Strategy& strategy) const;

  /// Utility of the truthful single-bid strategy.
  double truthful_utility() const;

  Money true_value() const { return true_value_; }
  Side role() const { return manipulator_.role; }
  const SingleUnitInstance& instance() const { return instance_; }

  /// One replicate's frozen view of the non-manipulator market: ranked
  /// residual entries plus the seeds for the strategy-insertion and
  /// protocol-internal randomness streams (fixed per replicate, so all
  /// strategies share them — common random numbers).  Immutable after
  /// construction; safe to read from any number of threads.
  struct ResidualRanking {
    std::vector<BidEntry> buyers;   // descending, ties in replicate order
    std::vector<BidEntry> sellers;  // ascending, ties in replicate order
    std::uint64_t insert_seed = 0;
    std::uint64_t clear_seed = 0;
  };

  const std::vector<ResidualRanking>& residual_rankings() const {
    return replicates_;
  }
  const DoubleAuctionProtocol& protocol() const { return protocol_; }
  const EvalConfig& eval_config() const { return config_; }

 private:
  AccountPosition clear_with(const ResidualRanking& residual,
                             const Strategy& strategy) const;

  const DoubleAuctionProtocol& protocol_;
  SingleUnitInstance instance_;
  ManipulatorSpec manipulator_;
  EvalConfig config_;
  Money true_value_;
  std::vector<ResidualRanking> replicates_;
  // Mutable scratch: reused by every `evaluate` call so the hot path never
  // allocates.  This is exactly what the thread-safety contract above is
  // about — const calls mutate these.
  mutable std::vector<BidEntry> merged_buyers_;   // scratch
  mutable std::vector<BidEntry> merged_sellers_;  // scratch
};

/// Search-space parameters for find_best_deviation.
struct SearchConfig {
  /// Maximum number of declarations in a strategy (1 = misreports only,
  /// 2 = one false name in addition to a primary bid, ...).
  std::size_t max_declarations = 2;
  /// Also consider submitting nothing at all.
  bool allow_absence = true;
  /// Hard cap on strategies evaluated (the enumeration is combinatorial).
  std::size_t max_strategies = 250'000;
  /// Lanes of the engine's call-local WorkerPool (0 = hardware
  /// concurrency; 1 runs inline).  Results are bit-identical for every
  /// thread count, and so is a failure: the lowest throwing block's
  /// exception is rethrown.
  std::size_t threads = 1;
  /// Bound-based pruning via DoubleAuctionProtocol::price_bracket.  Sound
  /// (never changes the result); disable to measure its effect.
  bool prune = true;
  /// Non-empty: use exactly these values as the declaration grid instead
  /// of the instance-derived `candidate_values`.  Lets benchmarks fix the
  /// candidate space independently of the population size.
  std::vector<Money> grid_override;
  /// Warm-start prune floor: candidates whose utility upper bound is
  /// STRICTLY below this are pruned in addition to the incumbent rule.
  /// Sound — same best strategy and utilities as the un-floored search —
  /// if and only if some enumerated candidate achieves at least this
  /// utility; `find_best_deviation_warm` guarantees that by seeding the
  /// floor with the re-evaluated utility of a strategy it has proven to
  /// be in the candidate space.  Coverage counters (evaluated / pruned)
  /// DO depend on the floor; the result does not.  -inf disables.
  double warm_floor = -std::numeric_limits<double>::infinity();
};

/// Engine observability: how the search space was covered.  All counters
/// except `wall_time_ns` and `threads_used` are deterministic — identical
/// for every thread count, because candidate blocks and their block-local
/// prune incumbents do not depend on the execution interleaving.
struct SearchStats {
  /// Candidates considered by the enumeration (absence included, capped by
  /// max_strategies) — pruned ones too.  Matches the serial reference's
  /// SearchResult::strategies_evaluated.
  std::size_t strategies_enumerated = 0;
  /// Candidates actually priced (enumerated minus pruned).
  std::size_t strategies_evaluated = 0;
  /// Candidates skipped by the utility upper bound at leaf level.
  std::size_t pruned_by_bound = 0;
  /// Candidates skipped in bulk when a whole declaration-size subtree's
  /// optimistic bound could not beat the incumbent.
  std::size_t pruned_in_subtree = 0;
  /// Candidates skipped only because of the warm-start floor (their bound
  /// beat the block incumbent but fell strictly below the floor).  Zero
  /// for cold searches.
  std::size_t pruned_by_warm_floor = 0;
  /// Ordered duplicate tuples avoided by canonical multiset enumeration
  /// (value-permutation-equivalent declaration sets collapse to one).
  std::size_t dedup_skipped = 0;
  /// Full clear_sorted fallbacks (per candidate per replicate).
  std::size_t clears_performed = 0;
  /// account_position fast-path hits (per candidate per replicate).
  std::size_t fast_positions = 0;
  /// Prune-bound tightness: sum over evaluated candidates (with a valid
  /// bracket) of bound minus achieved utility, in micro-units, plus the
  /// sample count.  Mean slack = bound_slack_micros / bound_slack_samples.
  /// The sum saturates at the int64 maximum rather than overflowing.
  std::int64_t bound_slack_micros = 0;
  std::size_t bound_slack_samples = 0;
  /// Wall time of the whole search (enumeration + merge), and the number
  /// of workers actually used.  NOT deterministic; excluded from metric
  /// digests by default.
  std::uint64_t wall_time_ns = 0;
  std::size_t threads_used = 1;

  /// Accumulates every deterministic counter from `other` (wall time and
  /// thread count are left alone — they describe the whole run, not a
  /// part).  Used to fold per-block stats in block order.
  void merge_from(const SearchStats& other);
};

struct SearchResult {
  double truthful_utility = 0.0;
  double best_utility = 0.0;
  Strategy best_strategy;
  /// Candidates considered (absence included, capped, pruned ones too) —
  /// the historical meaning, preserved so results compare across engine
  /// versions; `stats.strategies_evaluated` has the priced-only count.
  std::size_t strategies_evaluated = 0;
  bool truncated = false;
  SearchStats stats;

  /// True if the best deviation strictly beats truth by more than eps.
  bool profitable(double eps = 1e-9) const {
    return best_utility > truthful_utility + eps;
  }
};

/// Grid of candidate declaration values derived from an instance: every
/// agent's value, midpoints of adjacent distinct values, small offsets
/// around each, and the domain bounds — enough to realise any outcome the
/// (piecewise-constant) protocols can produce.
std::vector<Money> candidate_values(const SingleUnitInstance& instance,
                                    Money true_value);

/// Parallel pruned best-response search over declaration multisets up to
/// the configured size.  Bit-identical to `find_best_deviation_serial`
/// (same best strategy, same utilities, same considered count) at every
/// thread count; the speedup comes from pruning, the account-position
/// fast path, incremental residual patching, and worker parallelism.
SearchResult find_best_deviation(const DeviationEvaluator& evaluator,
                                 const SearchConfig& config = {});

/// Persistent per-account warm-start state carried across rounds of a
/// live session.  `find_best_deviation_warm`, `warm_cache_hit` and
/// `warm_repeat_hit` own every field; callers only construct one per
/// manipulator account and keep it alive between calls.  Holding the
/// state for account A and calling with account B's evaluator is safe
/// (the cached lanes/grid/config key will not match and the search runs
/// cold) but wastes the cache.
struct SearchState {
  bool has_result = false;
  /// The last call on this state was a `warm_cache_hit` (or
  /// `warm_repeat_hit`) hit: `last` revalidated against that call's
  /// inputs.  A search that stores a new result leaves it false, so the
  /// first check after a search always revalidates.
  bool revalidated = false;
  /// The previous search's full result (returned verbatim on a warm hit).
  SearchResult last;
  /// Ranked residual VALUE lanes of `last` — the invalidation rule: any
  /// change to either lane (value multiset or rank order, which for
  /// sorted lanes is the same thing) invalidates the cached result.
  /// Residual identities and tie order are deliberately excluded: the
  /// manipulator's utility is a function of the value lanes, its own
  /// declarations, and the seeds only.
  std::vector<Money> buyer_values;
  std::vector<Money> seller_values;
  /// Candidate grid of `last` (grid changes invalidate the cache).
  std::vector<Money> grid;
  /// Digest of every other result-affecting input (eval seed, replicates,
  /// utility penalty, role, true value, domain, search knobs).
  std::uint64_t config_key = 0;
  /// Residual lanes as a SortedBook, kept warm across rounds so a cache
  /// hit revalidates the cached best response in place: its declarations
  /// are inserted, priced through the protocol's O(log n)
  /// `account_position` fast path, and erased again, so the lanes are
  /// never copied and no evaluator is built.  Capacity for
  /// `max_declarations` extra entries per lane is reserved when the book
  /// is stored, so those inserts never reallocate.
  SortedBook residual_book;
  /// The revalidation's own-declaration list, reused from call to call.
  std::vector<OwnDeclaration> own_scratch;
  // --- observability ----------------------------------------------------
  std::size_t warm_hits = 0;    ///< unchanged book: cached result reused
  std::size_t warm_seeded = 0;  ///< engine runs seeded with the warm floor
  std::size_t cold_runs = 0;    ///< engine runs with no usable warm state
  /// Revalidations priced through `account_position` alone.  A
  /// `warm_repeat_hit` runs none, so it counts none.
  std::size_t fast_revalidations = 0;
};

/// Tier 1 of `find_best_deviation_warm`, decided without building a
/// DeviationEvaluator: the cached result is reused when the config key
/// (`eval`, role, true value, domain and the search knobs), the candidate
/// grid, and the ranked residual value lanes (`buyer_values` descending,
/// `seller_values` ascending; the manipulator's own declarations
/// excluded) all equal the previous call's, and revalidating the cached
/// best response against `state.residual_book` reproduces its utility
/// bit for bit.  The revalidation replays the live-lane evaluator's
/// streams — replicate t inserts with the first draw of
/// `Rng(eval.seed + γt)` and clears with the second — through
/// `account_position`, or a full `clear_sorted` when the protocol
/// declines it.  Returns the cached result (owned by `state`, valid until
/// its next miss), or nullptr on a miss; `state` changes only in
/// `revalidated` and the `warm_hits` / `fast_revalidations` counters.
/// Allocates nothing with a `grid_override` and a protocol that answers
/// `account_position`.
const SearchResult* warm_cache_hit(const DoubleAuctionProtocol& protocol,
                                   const ValueDomain& domain, Side role,
                                   Money true_value,
                                   const std::vector<Money>& buyer_values,
                                   const std::vector<Money>& seller_values,
                                   const EvalConfig& eval,
                                   const SearchConfig& config,
                                   SearchState& state);

/// Tier 1 again, for a caller that has proven every input of
/// `warm_cache_hit` (protocol, domain, role, true value, both residual
/// value lanes, `eval` and `config`) unchanged since its last call on
/// `state`.  When that call was a hit (`state.revalidated`), returns the
/// cached result and counts a warm hit without comparing the inputs or
/// revalidating: a revalidation is a deterministic function of the
/// retained `residual_book`, the cached best strategy, `eval` (seed,
/// replicates, utility), role and true value, and the book is restored
/// bit for bit after each one, so on unchanged inputs it would reproduce
/// the utility it reproduced last time.  Returns nullptr, changing
/// nothing, otherwise; the caller then takes the `warm_cache_hit` path.
/// The protocol must be a pure function of its inputs, as every protocol
/// in this library is.
const SearchResult* warm_repeat_hit(SearchState& state);

/// Warm-start wrapper around `find_best_deviation`.  Three tiers:
///   1. Cache hit — `warm_cache_hit` on the evaluator's residual value
///      lanes: the residual lanes, grid, and config match the previous
///      call exactly and the cached best response revalidates, so the
///      cached result is returned without enumeration.
///   2. Warm seed — the book changed but the previous best strategy is
///      still in the candidate space (declarations on the current grid,
///      within max_declarations, enumeration not truncated): it is
///      re-evaluated against the new book and its utility becomes
///      `SearchConfig::warm_floor`, so most subtrees die immediately.
///   3. Cold — no usable prior state: plain `find_best_deviation`.
/// All three tiers return the same best strategy and utilities as a cold
/// `find_best_deviation` / `find_best_deviation_serial` on the same
/// evaluator, bit for bit, at every thread count; only the coverage
/// counters differ.  Updates `state` with the returned result.  Tier 1
/// revalidates with the live-lane evaluator's seeds; an evaluator built
/// from an instance draws its seeds after its tie sort, so its tier-1
/// revalidation may disagree and run tier 2 instead — same result.
SearchResult find_best_deviation_warm(const DeviationEvaluator& evaluator,
                                      const SearchConfig& config,
                                      SearchState& state);

/// The original single-threaded exhaustive search, kept as the
/// equivalence oracle and the benchmark baseline.  Evaluates every
/// candidate with a full merge + clearing; no pruning, no fast path.
SearchResult find_best_deviation_serial(const DeviationEvaluator& evaluator,
                                        const SearchConfig& config = {});

/// Enumerates every strategy in the configured space (optionally the empty
/// strategy, then all declaration multisets over grid x {buyer, seller} up
/// to config.max_declarations), calling `consider` on each.  Returns false
/// if config.max_strategies stopped the enumeration early.  This is the
/// engine under find_best_deviation_serial and the best-response dynamics.
bool enumerate_strategies(const std::vector<Money>& grid,
                          const SearchConfig& config,
                          const std::function<void(const Strategy&)>& consider);

}  // namespace fnda
