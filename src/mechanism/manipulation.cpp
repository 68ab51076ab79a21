#include "mechanism/manipulation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/fnv.h"
#include "common/worker_pool.h"

namespace fnda {
namespace {

constexpr std::uint64_t kReplicateGamma = 0x9e3779b97f4a7c15ULL;

/// [lo, hi) of `value`'s equal-value run in a ranked lane (`value_before`
/// is the lane's strict order): the only slots where inserting `value`
/// keeps the lane ranked.
template <typename Compare>
std::pair<std::size_t, std::size_t> tie_run(const std::vector<BidEntry>& lane,
                                            Money value,
                                            Compare value_before) {
  const auto lo = std::lower_bound(
      lane.begin(), lane.end(), value,
      [&](const BidEntry& e, Money v) { return value_before(e.value, v); });
  const auto hi = std::upper_bound(
      lo, lane.end(), value,
      [&](Money v, const BidEntry& e) { return value_before(v, e.value); });
  return {static_cast<std::size_t>(lo - lane.begin()),
          static_cast<std::size_t>(hi - lane.begin())};
}

/// `tie_run` in `side`'s lane (buyers descending, sellers ascending).
std::pair<std::size_t, std::size_t> tie_run(const std::vector<BidEntry>& lane,
                                            Side side, Money value) {
  return side == Side::kBuyer
             ? tie_run(lane, value, [](Money a, Money b) { return a > b; })
             : tie_run(lane, value, [](Money a, Money b) { return a < b; });
}

/// Inserts `entry` into a ranked vector at a uniformly random position
/// within its equal-value run (the only positions that keep the ordering
/// valid).  Sequential uniform insertion of each own entry yields a
/// uniform interleaving with the residual ties, matching the footnote-5
/// "shuffle then stable sort" semantics conditioned on the residual order.
template <typename Compare>
void insert_with_random_tie(std::vector<BidEntry>& ranked,
                            const BidEntry& entry, Compare value_before,
                            Rng& rng) {
  const auto [lo, hi] = tie_run(ranked, entry.value, value_before);
  const auto offset = static_cast<std::ptrdiff_t>(lo + rng.below(hi - lo + 1));
  ranked.insert(ranked.begin() + offset, entry);
}

}  // namespace

DeviationEvaluator::DeviationEvaluator(const DoubleAuctionProtocol& protocol,
                                       SingleUnitInstance instance,
                                       ManipulatorSpec manipulator,
                                       EvalConfig config)
    : protocol_(protocol),
      instance_(std::move(instance)),
      manipulator_(manipulator),
      config_(config) {
  const auto& values = manipulator_.role == Side::kBuyer
                           ? instance_.buyer_values
                           : instance_.seller_values;
  if (manipulator_.index >= values.size()) {
    throw std::out_of_range("DeviationEvaluator: manipulator index");
  }
  true_value_ = values[manipulator_.index];
  if (config_.replicates == 0) {
    throw std::invalid_argument("DeviationEvaluator: replicates must be > 0");
  }

  // Rank the residual book (everyone but the manipulator) once per
  // replicate.  Every strategy evaluation reuses these rankings; only the
  // manipulator's own declarations are merged in per strategy.
  OrderBook residual(instance_.domain);
  for (std::size_t i = 0; i < instance_.buyer_values.size(); ++i) {
    if (manipulator_.role == Side::kBuyer && manipulator_.index == i) continue;
    residual.add_buyer(IdentityId{i}, instance_.buyer_values[i]);
  }
  for (std::size_t j = 0; j < instance_.seller_values.size(); ++j) {
    if (manipulator_.role == Side::kSeller && manipulator_.index == j) continue;
    residual.add_seller(IdentityId{kSellerIdentityBase + j},
                        instance_.seller_values[j]);
  }

  replicates_.reserve(config_.replicates);
  for (std::size_t t = 0; t < config_.replicates; ++t) {
    Rng rng(config_.seed + kReplicateGamma * t);
    ResidualRanking ranking;
    const SortedBook sorted(residual, rng);
    ranking.buyers = sorted.buyers();
    ranking.sellers = sorted.sellers();
    ranking.insert_seed = rng();
    ranking.clear_seed = rng();
    replicates_.push_back(std::move(ranking));
  }
}

DeviationEvaluator::DeviationEvaluator(
    const DoubleAuctionProtocol& protocol, ValueDomain domain, Side role,
    Money true_value, const std::vector<BidEntry>& residual_buyers,
    const std::vector<BidEntry>& residual_sellers, EvalConfig config)
    : protocol_(protocol), manipulator_{role, 0}, config_(config) {
  if (config_.replicates == 0) {
    throw std::invalid_argument("DeviationEvaluator: replicates must be > 0");
  }
  // Synthesize the instance the lanes describe: residual values in rank
  // order, the manipulator's own value appended last on its side.  The
  // rank order of a sorted lane IS a valid instance order, so accessors
  // and candidate_values see exactly the live population.
  instance_.domain = domain;
  instance_.buyer_values.reserve(residual_buyers.size() + 1);
  for (const BidEntry& entry : residual_buyers) {
    instance_.buyer_values.push_back(entry.value);
  }
  instance_.seller_values.reserve(residual_sellers.size() + 1);
  for (const BidEntry& entry : residual_sellers) {
    instance_.seller_values.push_back(entry.value);
  }
  auto& own_side = role == Side::kBuyer ? instance_.buyer_values
                                        : instance_.seller_values;
  manipulator_.index = own_side.size();
  own_side.push_back(true_value);
  true_value_ = true_value;

  // Adopt the frozen ranking for every replicate, re-numbered with the
  // canonical instance id scheme (BidIds in lane order, buyers first;
  // identities i / kSellerIdentityBase + j) so the engine's own-identity
  // window [kExtraIdentityBase, ...) can never collide with a residual
  // entry.  The manipulator's utility does not depend on residual
  // identities, so the re-numbering changes nothing observable.
  replicates_.reserve(config_.replicates);
  for (std::size_t t = 0; t < config_.replicates; ++t) {
    Rng rng(config_.seed + kReplicateGamma * t);
    ResidualRanking ranking;
    ranking.buyers.reserve(residual_buyers.size());
    for (std::size_t i = 0; i < residual_buyers.size(); ++i) {
      ranking.buyers.push_back(
          BidEntry{BidId{i}, IdentityId{i}, residual_buyers[i].value});
    }
    ranking.sellers.reserve(residual_sellers.size());
    for (std::size_t j = 0; j < residual_sellers.size(); ++j) {
      ranking.sellers.push_back(BidEntry{BidId{residual_buyers.size() + j},
                                         IdentityId{kSellerIdentityBase + j},
                                         residual_sellers[j].value});
    }
    ranking.insert_seed = rng();
    ranking.clear_seed = rng();
    replicates_.push_back(std::move(ranking));
  }
}

AccountPosition DeviationEvaluator::clear_with(const ResidualRanking& residual,
                                               const Strategy& strategy) const {
  merged_buyers_.assign(residual.buyers.begin(), residual.buyers.end());
  merged_sellers_.assign(residual.sellers.begin(), residual.sellers.end());

  // BidIds in the residual ranking are 0..residual_total-1 (OrderBook
  // insertion order); own declarations continue the sequence.
  const std::uint64_t bid_base =
      static_cast<std::uint64_t>(residual.buyers.size() +
                                 residual.sellers.size());
  Rng insert_rng(residual.insert_seed);
  std::vector<IdentityId> own_identities;
  own_identities.reserve(strategy.declarations.size());
  for (std::size_t d = 0; d < strategy.declarations.size(); ++d) {
    const Declaration& decl = strategy.declarations[d];
    if (decl.value < instance_.domain.lowest ||
        decl.value > instance_.domain.highest) {
      throw std::invalid_argument(
          "DeviationEvaluator: declaration outside the value domain");
    }
    const BidEntry entry{BidId{bid_base + d}, IdentityId{kExtraIdentityBase + d},
                         decl.value};
    own_identities.push_back(entry.identity);
    if (decl.side == Side::kBuyer) {
      insert_with_random_tie(merged_buyers_, entry,
                             [](Money a, Money b) { return a > b; },
                             insert_rng);
    } else {
      insert_with_random_tie(merged_sellers_, entry,
                             [](Money a, Money b) { return a < b; },
                             insert_rng);
    }
  }

  const SortedBook book = SortedBook::from_ranked(
      instance_.domain, std::move(merged_buyers_), std::move(merged_sellers_));
  Rng clear_rng(residual.clear_seed);
  const Outcome outcome = protocol_.clear_sorted(book, clear_rng);

  AccountPosition position;
  for (IdentityId identity : own_identities) {
    position.bought += outcome.units_bought(identity);
    position.sold += outcome.units_sold(identity);
    position.paid += outcome.paid_by(identity);
    position.received += outcome.received_by(identity);
    position.received += outcome.rebate_of(identity);  // rebate protocols
  }
  return position;
}

double DeviationEvaluator::evaluate(const Strategy& strategy) const {
  // Common random numbers: replicate t always uses the same residual
  // ranking and the same insertion/clearing streams, so strategy
  // comparisons are not polluted by tie-breaking noise.
  double total = 0.0;
  for (const ResidualRanking& residual : replicates_) {
    const AccountPosition position = clear_with(residual, strategy);
    total += config_.utility.evaluate(manipulator_.role, true_value_, position);
  }
  return total / static_cast<double>(config_.replicates);
}

double DeviationEvaluator::truthful_utility() const {
  return evaluate(Strategy::truthful(manipulator_.role, true_value_));
}

std::vector<Money> candidate_values(const SingleUnitInstance& instance,
                                    Money true_value) {
  std::set<Money> seeds;
  for (Money v : instance.buyer_values) seeds.insert(v);
  for (Money v : instance.seller_values) seeds.insert(v);
  seeds.insert(true_value);

  const Money delta = Money::from_double(0.125);
  std::set<Money> grid;
  auto add = [&](Money v) {
    grid.insert(std::clamp(v, instance.domain.lowest, instance.domain.highest));
  };
  Money previous;
  bool has_previous = false;
  for (Money v : seeds) {
    add(v - delta);
    add(v);
    add(v + delta);
    if (has_previous) add(Money::midpoint(previous, v));
    previous = v;
    has_previous = true;
  }
  add(instance.domain.lowest);
  add(instance.domain.highest);
  return {grid.begin(), grid.end()};
}

namespace {

constexpr std::int64_t kSlackMax = std::numeric_limits<std::int64_t>::max();

/// a + b for the non-negative bound-slack sums, pinned at the int64
/// maximum instead of overflowing: a long search over wide value domains
/// can pile up more slack than int64 micros can hold.
std::int64_t add_slack(std::int64_t a, std::int64_t b) {
  return a > kSlackMax - b ? kSlackMax : a + b;
}

/// One leaf's bound slack in micro-units.  A negative (or NaN) gap counts
/// as zero, and a gap past the int64 range is pinned before rounding.
std::int64_t slack_micros(double gap) {
  // The largest double below 2^63, so llround stays in range.
  constexpr double kLargest = 9223372036854774784.0;
  const double micros = gap * 1e6;
  if (!(micros > 0)) return 0;
  return micros >= kLargest ? kSlackMax : std::llround(micros);
}

}  // namespace

void SearchStats::merge_from(const SearchStats& other) {
  strategies_enumerated += other.strategies_enumerated;
  strategies_evaluated += other.strategies_evaluated;
  pruned_by_bound += other.pruned_by_bound;
  pruned_in_subtree += other.pruned_in_subtree;
  pruned_by_warm_floor += other.pruned_by_warm_floor;
  dedup_skipped += other.dedup_skipped;
  clears_performed += other.clears_performed;
  fast_positions += other.fast_positions;
  bound_slack_micros = add_slack(bound_slack_micros, other.bound_slack_micros);
  bound_slack_samples += other.bound_slack_samples;
  // wall_time_ns and threads_used describe the whole run, not a part;
  // the engine sets them once after the merge.
}

// ---------------------------------------------------------------------------
// The parallel pruned engine.
//
// Candidate space (identical to enumerate_strategies): the empty strategy
// first when allowed, then declaration multisets of size 1..S over the
// alphabet {buyer, seller} x grid, as non-decreasing index tuples in lex
// order.  The canonical-multiset form IS the dedup: the n^s ordered
// tuples per size collapse to C(n+s-1, s) value-permutation classes.
//
// Partition: a slice is every tuple of one size sharing its first
// alphabet index — a contiguous run of the serial order whose length is a
// closed-form multiset count.  Slices are grouped, still in serial order,
// into at most 64 blocks of roughly equal leaf count, which a WorkerPool
// hands out in block order.  Each block keeps a BLOCK-LOCAL prune
// incumbent seeded from max(truthful, absence) only — never from another
// block — so which candidates get pruned is a function of the partition
// alone, not of thread timing.  The final best response is folded in
// block order with a strictly-greater test, which reproduces the serial
// scan's first-strict-improvement winner exactly (a pruned candidate has
// bound <= its block incumbent <= the final best, so it can never be the
// serial first achiever: the incumbent it lost to comes earlier in
// serial order and already achieved at least its utility).
//
// Within a block, candidates are evaluated incrementally: each worker
// keeps one SortedBook per replicate holding residual + current prefix,
// patched with insert_ranked/erase_ranked per tree edge instead of
// re-copying both lanes per candidate.  Per-depth rng checkpoints replay
// the serial per-candidate insertion stream exactly (the serial path
// re-seeds from insert_seed per candidate, so the draw trajectory of a
// tuple depends only on its own prefix).  Positions of own declarations
// are tracked through the inserts, which lets protocols with
// rank-statistic pricing answer through account_position — no Outcome,
// no hashing — with a full clear_sorted fallback for the rest.
// ---------------------------------------------------------------------------
namespace {

constexpr std::uint64_t kCountMax = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kCountMax - b ? kCountMax : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kCountMax / b ? kCountMax : a * b;
}

/// Number of size-`size` multisets over `symbols` symbols:
/// C(symbols + size - 1, size), saturating.  The stepwise product
/// C(n-1+i, i) = C(n-2+i, i-1) * (n-1+i) / i divides exactly at every
/// step.
std::uint64_t multiset_count(std::uint64_t symbols, std::uint64_t size) {
  if (size == 0) return 1;
  if (symbols == 0) return 0;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= size; ++i) {
    const std::uint64_t mult = symbols - 1 + i;
    if (result > kCountMax / mult) return kCountMax;
    result = result * mult / i;
  }
  return result;
}

/// One contiguous run of the serial tuple order: all size-`size` tuples
/// whose first alphabet index is `first`.
struct Slice {
  std::size_t size = 0;
  std::size_t first = 0;
  std::uint64_t start = 0;  // serial tuple index of the slice's first leaf
  std::uint64_t leaves = 0;
};

struct BlockOutcome {
  bool has_best = false;
  double best_utility = 0.0;
  Strategy best_strategy;
  SearchStats stats;
};

/// Everything immutable the workers share.
struct SearchContext {
  const DeviationEvaluator* evaluator = nullptr;
  const UtilityModel* utility = nullptr;
  Side role = Side::kBuyer;
  Money true_value;
  ValueDomain domain;
  std::uint64_t bid_base = 0;
  std::size_t max_declarations = 0;
  std::vector<Declaration> alphabet;
  std::vector<char> tradable;   // can this declaration ever fill?
  std::vector<char> suffix_tb;  // tradable buy at index >= i exists
  std::vector<char> suffix_ts;  // tradable sell at index >= i exists
  std::vector<Slice> slices;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // [first, last)
  std::uint64_t tuple_cap = 0;  // tuples the serial order would consider
  double base_utility = 0.0;    // max(truthful, absence) — incumbent seed
  bool bracket_usable = false;  // bracket valid AND bound preconditions hold
  bool prune = false;           // bracket_usable && config.prune
  bool warm = false;            // bracket_usable && warm_floor > -inf
  double floor_units = 0.0;     // bracket.buy_floor, currency units
  double ceiling_units = 0.0;   // bracket.sell_ceiling, currency units
  double warm_floor = 0.0;      // SearchConfig::warm_floor (see soundness
                                // note there: only applied when achievable)
};

/// Sound utility upper bound for any candidate whose declarations contain
/// a tradable buy (tb) / tradable sell (ts), given the price bracket.
/// Preconditions (checked once per search before enabling the bracket):
/// buy_floor >= 0 and penalty >= sell_ceiling, which make every extra buy
/// and every failed delivery weakly utility-decreasing.  The bound is
/// monotone in (tb, ts), so evaluating it with "could any completion of
/// this prefix contain one" yields a sound subtree bound.
double strategy_bound(const SearchContext& ctx, bool tb, bool ts) {
  if (ctx.role == Side::kBuyer) {
    // Best case: one buy at the floor.  Sells are failed deliveries and
    // net at most ceiling - penalty <= 0 each.
    return tb ? std::max(0.0, ctx.true_value.to_double() - ctx.floor_units)
              : 0.0;
  }
  // Seller: without a tradable sell no fill can pay the account
  // (tradable buys alone cost at least the floor each).
  if (!ts) return 0.0;
  double bound = std::max(0.0, ctx.ceiling_units - ctx.true_value.to_double());
  if (tb) {
    // Wash trade: deliver the bought unit instead of the endowment —
    // receives at most the ceiling, pays at least the floor.  This is the
    // VCG-deficit exploit, and it is why the bound needs the tb term.
    bound = std::max(bound, ctx.ceiling_units - ctx.floor_units);
  }
  return bound;
}

/// Per-worker search state: one incrementally patched SortedBook (and rng
/// checkpoint ladder) per replicate.  Everything here is private to the
/// worker; the shared residual rankings are only read.  Cache-line
/// aligned, since the engine keeps one per pool worker side by side.
class alignas(64) BlockWorker {
 public:
  explicit BlockWorker(const SearchContext& ctx) : ctx_(ctx) {}

  void run_block(std::size_t first_slice, std::size_t last_slice,
                 BlockOutcome* out) {
    ensure_books();
    out_ = out;
    incumbent_ = ctx_.base_utility;
    for (std::size_t s = first_slice; s < last_slice; ++s) {
      const Slice& slice = ctx_.slices[s];
      if (slice.start >= ctx_.tuple_cap) break;
      cursor_ = slice.start;
      tradable_buys_ = 0;
      tradable_sells_ = 0;
      stack_.clear();
      // The slice's first element is fixed; deeper levels range freely.
      if (!dfs(0, slice.first, slice.first + 1, slice.size)) break;
    }
  }

 private:
  struct OwnPos {
    Side side = Side::kBuyer;
    std::size_t index = 0;  // current 0-based index in its lane
  };

  struct Rep {
    SortedBook book;               // residual + current prefix
    std::vector<Rng> checkpoints;  // [d] = insert stream before depth d
    std::vector<OwnPos> positions;
  };

  void ensure_books() {
    if (initialized_) return;
    const auto& residuals = ctx_.evaluator->residual_rankings();
    reps_.resize(residuals.size());
    for (std::size_t t = 0; t < residuals.size(); ++t) {
      reps_[t].book.assign_ranked(ctx_.domain, residuals[t].buyers,
                                  residuals[t].sellers);
      reps_[t].checkpoints.assign(ctx_.max_declarations + 1, Rng{});
      reps_[t].checkpoints[0] = Rng(residuals[t].insert_seed);
      reps_[t].positions.assign(ctx_.max_declarations, OwnPos{});
    }
    own_scratch_.reserve(ctx_.max_declarations);
    initialized_ = true;
  }

  /// Visits every tuple extending the current prefix with indices in
  /// [lo, hi) at `depth`, in serial order.  Returns false once the
  /// considered-candidate cap is reached (callers unwind and stop).
  bool dfs(std::size_t depth, std::size_t lo, std::size_t hi,
           std::size_t size) {
    const std::size_t n = ctx_.alphabet.size();
    for (std::size_t idx = lo; idx < hi; ++idx) {
      if (cursor_ >= ctx_.tuple_cap) return false;
      const std::uint64_t subtree =
          multiset_count(n - idx, size - depth - 1);
      const Declaration& decl = ctx_.alphabet[idx];
      const bool decl_tb = decl.side == Side::kBuyer && ctx_.tradable[idx];
      const bool decl_ts = decl.side == Side::kSeller && ctx_.tradable[idx];
      double bound = 0.0;
      if (ctx_.bracket_usable) {
        // Optimistic class availability over every completion: the
        // prefix, this declaration, and (below leaf level) anything at
        // index >= idx.  At a leaf this is the tuple's exact bound.
        const bool deeper = size - depth - 1 > 0;
        const bool tb = tradable_buys_ > 0 || decl_tb ||
                        (deeper && ctx_.suffix_tb[idx]);
        const bool ts = tradable_sells_ > 0 || decl_ts ||
                        (deeper && ctx_.suffix_ts[idx]);
        bound = strategy_bound(ctx_, tb, ts);
        const bool below_incumbent = ctx_.prune && bound <= incumbent_;
        // Warm floor: STRICTLY below (a bound-tight candidate achieving
        // exactly the floor may be the serial first achiever, so it must
        // survive).  Pruned candidates then have utility < floor <= the
        // final best, which keeps the winner — though not the coverage
        // counters — identical to the un-floored search.
        const bool below_floor = ctx_.warm && bound < ctx_.warm_floor;
        if (below_incumbent || below_floor) {
          // The whole subtree is dominated: no completion can strictly
          // beat the incumbent (or reach the warm floor), which sits
          // earlier in serial order.
          const std::uint64_t considered =
              std::min<std::uint64_t>(subtree, ctx_.tuple_cap - cursor_);
          if (!below_incumbent) {
            out_->stats.pruned_by_warm_floor += considered;
          } else if (depth + 1 == size) {
            out_->stats.pruned_by_bound += considered;
          } else {
            out_->stats.pruned_in_subtree += considered;
          }
          cursor_ = sat_add(cursor_, subtree);
          continue;
        }
      }

      stack_.push_back(idx);
      insert_depth(depth, decl);
      tradable_buys_ += decl_tb ? 1 : 0;
      tradable_sells_ += decl_ts ? 1 : 0;
      bool keep_going = true;
      if (depth + 1 == size) {
        const double utility = evaluate_leaf(size);
        ++out_->stats.strategies_evaluated;
        if (ctx_.bracket_usable) {
          out_->stats.bound_slack_micros = add_slack(
              out_->stats.bound_slack_micros, slack_micros(bound - utility));
          ++out_->stats.bound_slack_samples;
        }
        if (utility > incumbent_) {
          incumbent_ = utility;
          out_->has_best = true;
          out_->best_utility = utility;
          out_->best_strategy.declarations.clear();
          for (std::size_t chosen : stack_) {
            out_->best_strategy.declarations.push_back(ctx_.alphabet[chosen]);
          }
        }
        ++cursor_;
      } else {
        keep_going = dfs(depth + 1, idx, n, size);
      }
      tradable_buys_ -= decl_tb ? 1 : 0;
      tradable_sells_ -= decl_ts ? 1 : 0;
      erase_depth(depth);
      stack_.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// Merges `decl` into every replicate's book at the position the serial
  /// evaluator's insert stream would choose, and records it.
  void insert_depth(std::size_t depth, const Declaration& decl) {
    const BidEntry entry{BidId{ctx_.bid_base + depth},
                         IdentityId{kExtraIdentityBase + depth}, decl.value};
    for (Rep& rep : reps_) {
      Rng rng = rep.checkpoints[depth];
      const auto [lo, hi] = tie_run(
          decl.side == Side::kBuyer ? rep.book.buyers() : rep.book.sellers(),
          decl.side, decl.value);
      const std::size_t index =
          lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
      rep.book.insert_ranked(decl.side, entry, index);
      // The insert shifts every earlier own declaration at or behind it.
      for (std::size_t e = 0; e < depth; ++e) {
        OwnPos& p = rep.positions[e];
        if (p.side == decl.side && p.index >= index) ++p.index;
      }
      rep.positions[depth] = OwnPos{decl.side, index};
      rep.checkpoints[depth + 1] = rng;
    }
  }

  void erase_depth(std::size_t depth) {
    for (Rep& rep : reps_) {
      const OwnPos p = rep.positions[depth];
      rep.book.erase_ranked(p.side, p.index);
      for (std::size_t e = 0; e < depth; ++e) {
        OwnPos& q = rep.positions[e];
        if (q.side == p.side && q.index > p.index) --q.index;
      }
    }
  }

  /// Mean utility of the fully inserted tuple, bit-identical to the
  /// serial evaluator: the fast position path and the fill-scan fallback
  /// both reproduce clear_sorted's attribution exactly (Money sums are
  /// integer and order-independent), and the replicate averaging loop
  /// runs in the same order with the same double arithmetic.
  double evaluate_leaf(std::size_t size) {
    const auto& residuals = ctx_.evaluator->residual_rankings();
    const DoubleAuctionProtocol& protocol = ctx_.evaluator->protocol();
    double total = 0.0;
    for (std::size_t t = 0; t < reps_.size(); ++t) {
      Rep& rep = reps_[t];
      own_scratch_.clear();
      for (std::size_t d = 0; d < size; ++d) {
        own_scratch_.push_back(OwnDeclaration{
            rep.positions[d].side, rep.positions[d].index + 1,
            ctx_.alphabet[stack_[d]].value,
            IdentityId{kExtraIdentityBase + d}});
      }
      AccountFills fills;
      if (protocol.account_position(rep.book, own_scratch_, &fills)) {
        ++out_->stats.fast_positions;
      } else {
        Rng clear_rng(residuals[t].clear_seed);
        const Outcome outcome = protocol.clear_sorted(rep.book, clear_rng);
        ++out_->stats.clears_performed;
        const std::uint64_t id_lo = kExtraIdentityBase;
        const std::uint64_t id_hi = kExtraIdentityBase + size;
        for (const Fill& fill : outcome.fills()) {
          const std::uint64_t id = fill.identity.value();
          if (id < id_lo || id >= id_hi) continue;
          if (fill.side == Side::kBuyer) {
            ++fills.bought;
            fills.paid += fill.price;
          } else {
            ++fills.sold;
            fills.received += fill.price;
          }
        }
        for (std::size_t d = 0; d < size; ++d) {
          fills.received +=
              outcome.rebate_of(IdentityId{kExtraIdentityBase + d});
        }
      }
      const AccountPosition position{fills.bought, fills.sold, fills.paid,
                                     fills.received};
      total += ctx_.utility->evaluate(ctx_.role, ctx_.true_value, position);
    }
    return total / static_cast<double>(reps_.size());
  }

  const SearchContext& ctx_;
  std::vector<Rep> reps_;
  std::vector<std::size_t> stack_;  // alphabet indices of the current prefix
  std::vector<OwnDeclaration> own_scratch_;
  std::uint64_t cursor_ = 0;  // serial tuple index of the next leaf
  std::size_t tradable_buys_ = 0;
  std::size_t tradable_sells_ = 0;
  double incumbent_ = 0.0;
  BlockOutcome* out_ = nullptr;
  bool initialized_ = false;
};

}  // namespace

SearchResult find_best_deviation(const DeviationEvaluator& evaluator,
                                 const SearchConfig& config) {
  const auto started = std::chrono::steady_clock::now();
  const SingleUnitInstance& instance = evaluator.instance();
  const std::vector<Money> grid =
      config.grid_override.empty()
          ? candidate_values(instance, evaluator.true_value())
          : config.grid_override;
  for (Money v : grid) {
    if (v < instance.domain.lowest || v > instance.domain.highest) {
      throw std::invalid_argument(
          "find_best_deviation: declaration outside the value domain");
    }
  }

  SearchResult result;
  result.truthful_utility = evaluator.truthful_utility();
  result.best_utility = result.truthful_utility;
  result.best_strategy =
      Strategy::truthful(evaluator.role(), evaluator.true_value());
  if (config.allow_absence) {
    const double absence_utility = evaluator.evaluate(Strategy{});
    if (absence_utility > result.best_utility) {
      result.best_utility = absence_utility;
      result.best_strategy = Strategy{};
    }
  }

  SearchContext ctx;
  ctx.evaluator = &evaluator;
  ctx.utility = &evaluator.eval_config().utility;
  ctx.role = evaluator.role();
  ctx.true_value = evaluator.true_value();
  ctx.domain = instance.domain;
  ctx.max_declarations = config.max_declarations;
  ctx.base_utility = result.best_utility;
  {
    const auto& residual = evaluator.residual_rankings().front();
    ctx.bid_base = static_cast<std::uint64_t>(residual.buyers.size() +
                                              residual.sellers.size());
  }

  ctx.alphabet.reserve(grid.size() * 2);
  for (Money v : grid) {
    ctx.alphabet.push_back(Declaration{Side::kBuyer, v});
    ctx.alphabet.push_back(Declaration{Side::kSeller, v});
  }
  const std::size_t n = ctx.alphabet.size();

  // Candidate-space accounting, matching enumerate_strategies exactly:
  // the absence candidate (when allowed) is always considered, tuples
  // until the cap.  The counts are closed-form, so pruning never changes
  // the reported coverage.
  const std::uint64_t absence = config.allow_absence ? 1 : 0;
  std::uint64_t total_tuples = 0;
  std::uint64_t dedup = 0;
  for (std::size_t size = 1; size <= config.max_declarations; ++size) {
    const std::uint64_t multisets = multiset_count(n, size);
    total_tuples = sat_add(total_tuples, multisets);
    std::uint64_t ordered = 1;
    for (std::size_t i = 0; i < size; ++i) ordered = sat_mul(ordered, n);
    dedup = ordered == kCountMax ? kCountMax
                                 : sat_add(dedup, ordered - multisets);
  }
  result.truncated = total_tuples >= 1 &&
                     sat_add(absence, total_tuples) > config.max_strategies;
  const std::uint64_t considered =
      result.truncated
          ? std::max<std::uint64_t>(absence, config.max_strategies)
          : absence + total_tuples;
  ctx.tuple_cap = result.truncated
                      ? (config.max_strategies > absence
                             ? config.max_strategies - absence
                             : 0)
                      : total_tuples;

  // Price bracket from replicate 0's ranking (the bound only reads value
  // order statistics, identical across replicates), gated on the
  // preconditions that make the utility bound sound.
  const auto& residuals = evaluator.residual_rankings();
  const PriceBracket bracket = [&] {
    const SortedBook ranked = SortedBook::from_ranked(
        instance.domain, residuals.front().buyers, residuals.front().sellers);
    return evaluator.protocol().price_bracket(ranked, config.max_declarations);
  }();
  const Money penalty = evaluator.eval_config().utility.penalty();
  ctx.bracket_usable = bracket.valid && bracket.buy_floor >= Money{} &&
                       penalty >= bracket.sell_ceiling;
  ctx.prune = config.prune && ctx.bracket_usable;
  ctx.warm = ctx.bracket_usable &&
             config.warm_floor > -std::numeric_limits<double>::infinity();
  ctx.warm_floor = config.warm_floor;
  ctx.floor_units = bracket.buy_floor.to_double();
  ctx.ceiling_units = bracket.sell_ceiling.to_double();

  ctx.tradable.assign(n, 1);
  ctx.suffix_tb.assign(n, 0);
  ctx.suffix_ts.assign(n, 0);
  if (ctx.bracket_usable) {
    for (std::size_t i = 0; i < n; ++i) {
      const Declaration& decl = ctx.alphabet[i];
      // A buy below the floor / a sell above the ceiling can never fill
      // on any reachable book (prices bracket every fill).
      ctx.tradable[i] = decl.side == Side::kBuyer
                            ? decl.value >= bracket.buy_floor
                            : decl.value <= bracket.sell_ceiling;
    }
    bool tb = false;
    bool ts = false;
    for (std::size_t i = n; i-- > 0;) {
      tb = tb || (ctx.alphabet[i].side == Side::kBuyer && ctx.tradable[i]);
      ts = ts || (ctx.alphabet[i].side == Side::kSeller && ctx.tradable[i]);
      ctx.suffix_tb[i] = tb;
      ctx.suffix_ts[i] = ts;
    }
  }

  // Deterministic partition: slices in serial order, grouped into at most
  // 64 contiguous blocks of roughly equal leaf count.  Independent of the
  // thread count by construction.
  {
    std::uint64_t cursor = 0;
    for (std::size_t size = 1; size <= config.max_declarations; ++size) {
      for (std::size_t first = 0; first < n; ++first) {
        const std::uint64_t leaves = multiset_count(n - first, size - 1);
        if (cursor < ctx.tuple_cap) {
          ctx.slices.push_back(Slice{size, first, cursor, leaves});
        }
        cursor = sat_add(cursor, leaves);
      }
    }
    std::uint64_t considered_leaves = 0;
    for (const Slice& slice : ctx.slices) {
      considered_leaves = sat_add(
          considered_leaves,
          std::min<std::uint64_t>(slice.leaves, ctx.tuple_cap - slice.start));
    }
    const std::uint64_t target =
        considered_leaves == 0 ? 1 : (considered_leaves + 63) / 64;
    std::size_t begin = 0;
    std::uint64_t accumulated = 0;
    for (std::size_t i = 0; i < ctx.slices.size(); ++i) {
      accumulated += std::min<std::uint64_t>(
          ctx.slices[i].leaves, ctx.tuple_cap - ctx.slices[i].start);
      if (accumulated >= target) {
        ctx.blocks.emplace_back(begin, i + 1);
        begin = i + 1;
        accumulated = 0;
      }
    }
    if (begin < ctx.slices.size()) {
      ctx.blocks.emplace_back(begin, ctx.slices.size());
    }
  }

  std::vector<BlockOutcome> outcomes(ctx.blocks.size());
  WorkerPool pool(std::min(resolve_threads(config.threads),
                           std::max<std::size_t>(ctx.blocks.size(), 1)));
  std::vector<std::optional<BlockWorker>> workers(pool.lanes());
  pool.run_blocks(ctx.blocks.size(), [&](std::size_t b, std::size_t w) {
    if (!workers[w]) workers[w].emplace(ctx);
    workers[w]->run_block(ctx.blocks[b].first, ctx.blocks[b].second,
                          &outcomes[b]);
  });

  // Merge in block (= serial) order with a strictly-greater test: the
  // first block whose champion achieves the maximum wins, reproducing the
  // serial first-strict-improvement scan.
  result.stats.strategies_evaluated = static_cast<std::size_t>(absence);
  for (const BlockOutcome& block : outcomes) {
    result.stats.merge_from(block.stats);
    if (block.has_best && block.best_utility > result.best_utility) {
      result.best_utility = block.best_utility;
      result.best_strategy = block.best_strategy;
    }
  }
  result.strategies_evaluated = static_cast<std::size_t>(considered);
  result.stats.strategies_enumerated = static_cast<std::size_t>(considered);
  result.stats.dedup_skipped = static_cast<std::size_t>(dedup);
  result.stats.threads_used = pool.lanes();
  result.stats.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return result;
}

namespace {

/// FNV-1a fold of the non-lane, non-grid inputs that affect a search
/// result.  Collisions here are harmless for correctness — the lanes and
/// grid are compared exactly, and even a spurious "hit" is re-validated
/// against the live book before the cached result is trusted.
std::uint64_t warm_config_key(const EvalConfig& eval, Side role,
                              Money true_value, const ValueDomain& domain,
                              const SearchConfig& config) {
  std::uint64_t hash = kFnvOffsetBasis;
  auto fold = [&hash](std::uint64_t word) { fnv1a_fold(hash, word); };
  fold(eval.seed);
  fold(eval.replicates);
  fold(static_cast<std::uint64_t>(eval.utility.penalty().micros()));
  fold(role == Side::kBuyer ? 1 : 2);
  fold(static_cast<std::uint64_t>(true_value.micros()));
  fold(static_cast<std::uint64_t>(domain.lowest.micros()));
  fold(static_cast<std::uint64_t>(domain.highest.micros()));
  fold(config.max_declarations);
  fold(config.allow_absence ? 1 : 0);
  fold(config.max_strategies);
  fold(config.prune ? 1 : 0);
  return hash;
}

/// The search grid over residual value lanes: `grid_override`, or the
/// `candidate_values` grid of the instance those lanes describe.
std::vector<Money> warm_grid(const std::vector<Money>& buyer_values,
                             const std::vector<Money>& seller_values,
                             const ValueDomain& domain, Money true_value,
                             const SearchConfig& config) {
  if (!config.grid_override.empty()) return config.grid_override;
  SingleUnitInstance instance;
  instance.domain = domain;
  instance.buyer_values = buyer_values;
  instance.seller_values = seller_values;
  return candidate_values(instance, true_value);
}

/// True when `strategy` is produced by the canonical enumeration over
/// `grid` under `config` — the precondition for using its utility as a
/// sound warm floor (see SearchConfig::warm_floor).
bool strategy_in_space(const Strategy& strategy, const std::vector<Money>& grid,
                       const SearchConfig& config, Side role,
                       Money true_value) {
  if (strategy.declarations.empty()) return config.allow_absence;
  // The truthful single declaration is base-evaluated before enumeration,
  // so it is always achieved — grid membership is irrelevant.
  if (strategy.declarations.size() == 1 &&
      strategy.declarations.front().side == role &&
      strategy.declarations.front().value == true_value) {
    return true;
  }
  if (strategy.declarations.size() > config.max_declarations) return false;
  for (const Declaration& decl : strategy.declarations) {
    if (std::find(grid.begin(), grid.end(), decl.value) == grid.end()) {
      return false;
    }
  }
  // Truncated enumerations may stop before reaching the cached tuple, so
  // the floor would not be achieved; require full coverage.
  const std::size_t n = grid.size() * 2;
  const std::uint64_t absence = config.allow_absence ? 1 : 0;
  std::uint64_t total_tuples = 0;
  for (std::size_t size = 1; size <= config.max_declarations; ++size) {
    total_tuples = sat_add(total_tuples, multiset_count(n, size));
  }
  return sat_add(absence, total_tuples) <= config.max_strategies;
}

/// Utility of `strategy` against the residual lanes in `book`, bit-
/// identical to `DeviationEvaluator::evaluate` on a live-lane evaluator
/// built from those lanes with `eval`: each replicate replays that
/// evaluator's insert stream (the same slot within each equal-value run
/// the engine picks), prices the account through `account_position` or,
/// where the protocol declines, a full `clear_sorted` on its clear
/// stream, and the replicate mean is taken in the same order.  `*fast`
/// reports whether no clearing was needed.  The book is restored before
/// returning, also when the protocol throws; `own` is scratch.
double revalidate(const DoubleAuctionProtocol& protocol, Side role,
                  Money true_value, const EvalConfig& eval,
                  const Strategy& strategy, SortedBook& book,
                  std::vector<OwnDeclaration>& own, bool* fast) {
  *fast = true;
  if (strategy.declarations.empty()) {
    return eval.utility.evaluate(role, true_value, AccountPosition{});
  }
  const std::uint64_t bid_base =
      static_cast<std::uint64_t>(book.buyer_count() + book.seller_count());
  double total = 0.0;
  for (std::size_t t = 0; t < eval.replicates; ++t) {
    Rng seeds(eval.seed + kReplicateGamma * t);
    Rng insert_rng(seeds());
    const std::uint64_t clear_seed = seeds();
    own.clear();
    for (std::size_t d = 0; d < strategy.declarations.size(); ++d) {
      const Declaration& decl = strategy.declarations[d];
      const auto [lo, hi] = tie_run(
          decl.side == Side::kBuyer ? book.buyers() : book.sellers(),
          decl.side, decl.value);
      const std::size_t index =
          lo + static_cast<std::size_t>(insert_rng.below(hi - lo + 1));
      const IdentityId identity{kExtraIdentityBase + d};
      book.insert_ranked(decl.side, BidEntry{BidId{bid_base + d}, identity,
                                             decl.value},
                         index);
      // The insert shifts every earlier own declaration at or behind it.
      for (OwnDeclaration& earlier : own) {
        if (earlier.side == decl.side && earlier.rank > index) ++earlier.rank;
      }
      own.push_back(OwnDeclaration{decl.side, index + 1, decl.value, identity});
    }
    // Erase in reverse insertion order: each erase undoes the matching
    // insert, so the lanes come back bit for bit.
    auto restore = [&] {
      while (!own.empty()) {
        const OwnDeclaration last = own.back();
        own.pop_back();
        book.erase_ranked(last.side, last.rank - 1);
        for (OwnDeclaration& earlier : own) {
          if (earlier.side == last.side && earlier.rank > last.rank) {
            --earlier.rank;
          }
        }
      }
    };
    AccountFills fills;
    try {
      if (!protocol.account_position(book, own, &fills)) {
        *fast = false;
        Rng clear_rng(clear_seed);
        const Outcome outcome = protocol.clear_sorted(book, clear_rng);
        for (const OwnDeclaration& decl : own) {
          fills.bought += outcome.units_bought(decl.identity);
          fills.sold += outcome.units_sold(decl.identity);
          fills.paid += outcome.paid_by(decl.identity);
          fills.received += outcome.received_by(decl.identity);
          fills.received += outcome.rebate_of(decl.identity);
        }
      }
    } catch (...) {
      restore();
      throw;
    }
    restore();
    total += eval.utility.evaluate(
        role, true_value,
        AccountPosition{fills.bought, fills.sold, fills.paid, fills.received});
  }
  return total / static_cast<double>(eval.replicates);
}

}  // namespace

const SearchResult* warm_cache_hit(const DoubleAuctionProtocol& protocol,
                                   const ValueDomain& domain, Side role,
                                   Money true_value,
                                   const std::vector<Money>& buyer_values,
                                   const std::vector<Money>& seller_values,
                                   const EvalConfig& eval,
                                   const SearchConfig& config,
                                   SearchState& state) {
  state.revalidated = false;
  if (!state.has_result ||
      state.config_key !=
          warm_config_key(eval, role, true_value, domain, config) ||
      state.buyer_values != buyer_values ||
      state.seller_values != seller_values) {
    return nullptr;
  }
  if (config.grid_override.empty()
          ? state.grid != warm_grid(buyer_values, seller_values, domain,
                                    true_value, config)
          : state.grid != config.grid_override) {
    return nullptr;
  }
  // Nothing changed: revalidate the cached best response against the
  // retained book.  The revalidation is a safety net, not a correctness
  // requirement: on any mismatch the caller runs a full search.
  bool fast = false;
  const double revalidated =
      revalidate(protocol, role, true_value, eval, state.last.best_strategy,
                 state.residual_book, state.own_scratch, &fast);
  if (fast) ++state.fast_revalidations;
  if (revalidated != state.last.best_utility) return nullptr;
  state.revalidated = true;
  ++state.warm_hits;
  return &state.last;
}

const SearchResult* warm_repeat_hit(SearchState& state) {
  if (!state.revalidated) return nullptr;
  ++state.warm_hits;
  return &state.last;
}

SearchResult find_best_deviation_warm(const DeviationEvaluator& evaluator,
                                      const SearchConfig& config,
                                      SearchState& state) {
  const ValueDomain& domain = evaluator.instance().domain;
  const auto& residual = evaluator.residual_rankings().front();
  std::vector<Money> buyer_values;
  buyer_values.reserve(residual.buyers.size());
  for (const BidEntry& entry : residual.buyers) {
    buyer_values.push_back(entry.value);
  }
  std::vector<Money> seller_values;
  seller_values.reserve(residual.sellers.size());
  for (const BidEntry& entry : residual.sellers) {
    seller_values.push_back(entry.value);
  }

  // Tier 1 — nothing changed: the cached result, without enumerating.
  if (const SearchResult* hit = warm_cache_hit(
          evaluator.protocol(), domain, evaluator.role(),
          evaluator.true_value(), buyer_values, seller_values,
          evaluator.eval_config(), config, state)) {
    return *hit;
  }

  // Tier 2 — the book (or config) changed: if the cached best strategy is
  // still in the candidate space, its utility on the CURRENT book is a
  // sound prune floor (some enumerated candidate — that very strategy —
  // achieves it).  Tier 3 — no usable prior state: run cold.
  std::vector<Money> grid = warm_grid(buyer_values, seller_values, domain,
                                      evaluator.true_value(), config);
  SearchConfig run = config;
  if (state.has_result &&
      strategy_in_space(state.last.best_strategy, grid, config,
                        evaluator.role(), evaluator.true_value())) {
    run.warm_floor = evaluator.evaluate(state.last.best_strategy);
    ++state.warm_seeded;
  } else {
    ++state.cold_runs;
  }
  SearchResult result = find_best_deviation(evaluator, run);

  state.has_result = true;
  state.last = result;
  state.buyer_values = std::move(buyer_values);
  state.seller_values = std::move(seller_values);
  state.grid = std::move(grid);
  state.config_key =
      warm_config_key(evaluator.eval_config(), evaluator.role(),
                      evaluator.true_value(), domain, config);
  state.residual_book.assign_ranked(domain, residual.buyers,
                                    residual.sellers);
  state.residual_book.reserve(
      residual.buyers.size() + config.max_declarations,
      residual.sellers.size() + config.max_declarations);
  state.own_scratch.reserve(config.max_declarations);
  return result;
}

SearchResult find_best_deviation_serial(const DeviationEvaluator& evaluator,
                                        const SearchConfig& config) {
  const auto started = std::chrono::steady_clock::now();
  const std::vector<Money> grid =
      config.grid_override.empty()
          ? candidate_values(evaluator.instance(), evaluator.true_value())
          : config.grid_override;

  SearchResult result;
  result.truthful_utility = evaluator.truthful_utility();
  result.best_utility = result.truthful_utility;
  result.best_strategy =
      Strategy::truthful(evaluator.role(), evaluator.true_value());

  auto consider = [&](const Strategy& strategy) {
    ++result.strategies_evaluated;
    const double utility = evaluator.evaluate(strategy);
    if (utility > result.best_utility) {
      result.best_utility = utility;
      result.best_strategy = strategy;
    }
  };
  result.truncated = !enumerate_strategies(grid, config, consider);
  result.stats.strategies_enumerated = result.strategies_evaluated;
  result.stats.strategies_evaluated = result.strategies_evaluated;
  result.stats.clears_performed =
      result.strategies_evaluated * evaluator.eval_config().replicates;
  result.stats.threads_used = 1;
  result.stats.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return result;
}

bool enumerate_strategies(
    const std::vector<Money>& grid, const SearchConfig& config,
    const std::function<void(const Strategy&)>& consider) {
  std::vector<Declaration> alphabet;
  alphabet.reserve(grid.size() * 2);
  for (Money v : grid) {
    alphabet.push_back(Declaration{Side::kBuyer, v});
    alphabet.push_back(Declaration{Side::kSeller, v});
  }

  std::size_t evaluated = 0;
  if (config.allow_absence) {
    consider(Strategy{});
    ++evaluated;
  }

  // Multisets of declarations of size 1..max_declarations, enumerated as
  // non-decreasing index tuples over the alphabet.
  std::vector<std::size_t> indices;
  const std::size_t n = alphabet.size();
  for (std::size_t size = 1; size <= config.max_declarations; ++size) {
    indices.assign(size, 0);
    while (true) {
      if (evaluated >= config.max_strategies) return false;
      Strategy strategy;
      strategy.declarations.reserve(size);
      for (std::size_t idx : indices) {
        strategy.declarations.push_back(alphabet[idx]);
      }
      consider(strategy);
      ++evaluated;

      // Advance to the next non-decreasing tuple.
      std::size_t pos = size;
      while (pos > 0 && indices[pos - 1] == n - 1) --pos;
      if (pos == 0) break;
      const std::size_t next = indices[pos - 1] + 1;
      for (std::size_t p = pos - 1; p < size; ++p) indices[p] = next;
    }
  }
  return true;
}

}  // namespace fnda
