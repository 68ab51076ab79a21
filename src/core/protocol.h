// Protocol interface.
//
// A double-auction protocol is a deterministic function of the rank-ordered
// book (plus any randomness it explicitly draws, e.g. tie-breaking or the
// randomized-threshold baseline).  Protocols are direct revelation
// mechanisms: they see declared values only, never true valuations.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/order_book.h"
#include "core/outcome.h"

namespace fnda {

/// Sound per-side price bounds over every book reachable from a given
/// ranking by adding at most a known number of extra declarations.  The
/// manipulation-search engine turns a bracket into a utility upper bound
/// (best price the searcher could possibly trade at) and prunes whole
/// candidate subtrees that cannot beat the incumbent.  `valid == false`
/// means the protocol makes no promise — always sound, never prunes.
struct PriceBracket {
  Money buy_floor;     // no buyer fill can pay less than this
  Money sell_ceiling;  // no seller fill can receive more than this
  bool valid = false;
};

/// One of a searching account's declarations as merged into a ranked book:
/// its side, its 1-based rank within that side's lane, and the declared
/// value.  Produced by callers that maintain the merge incrementally and
/// therefore already know where each own declaration landed.
struct OwnDeclaration {
  Side side;
  std::size_t rank = 0;  // 1-based rank in `side`'s lane
  Money value;
  IdentityId identity;
};

/// Aggregate fills of one account across a clearing: what the fast
/// account-position path computes instead of materializing an Outcome.
/// `received` folds in rebates for protocols that grant them, mirroring
/// how the utility model consumes an AccountPosition.
struct AccountFills {
  std::size_t bought = 0;
  std::size_t sold = 0;
  Money paid;
  Money received;
};

/// Shared price bracket for the k-double-auction family (PMD, VCG, k-DA,
/// efficient clearing): with k = efficient_trade_count of the base
/// ranking, every buyer fill pays at least s(k) and every seller fill
/// receives at most b(k).  Inserting D extra declarations shifts any rank
/// statistic by at most D positions and can only raise k, so s'(k') >=
/// s(k - D) and b'(k') <= b(k - D) on every reachable book — the bracket
/// below is sound for any strategy of up to `extra` declarations.
inline PriceBracket k_double_auction_bracket(const SortedBook& ranked,
                                             std::size_t extra) {
  PriceBracket bracket;
  bracket.valid = true;
  const std::size_t k = ranked.efficient_trade_count();
  if (k > extra) {
    bracket.buy_floor = ranked.seller_value(k - extra);
    bracket.sell_ceiling = ranked.buyer_value(k - extra);
  } else {
    bracket.buy_floor = ranked.domain().lowest;
    bracket.sell_ceiling = ranked.domain().highest;
  }
  return bracket;
}

/// Abstract discrete-time (call-market) double-auction protocol.
///
/// Every protocol implements one clearing rule, `fill`, over a book that
/// has ALREADY been rank-ordered (tie-breaking included), writing into an
/// empty Outcome.  `clear_into` is its one caller: it empties a
/// caller-owned Outcome, then fills it.  The Monte-Carlo experiment runners
/// build one SortedBook per instance, share it across every registered
/// protocol instead of re-sorting P times, and clear each into one reused
/// Outcome.  `clear_sorted` is the by-value form of the same rule, and
/// `clear` the raw-book convenience the market server and one-off callers
/// use: it ranks the book and forwards, so every entry point yields
/// identical outcomes for identical rng streams.
class DoubleAuctionProtocol {
 public:
  virtual ~DoubleAuctionProtocol() = default;

  /// Clears one round.  `rng` supplies tie-breaking (and, for randomized
  /// protocols, allocation randomness); passing the same book and rng
  /// state reproduces the same outcome exactly.
  Outcome clear(const OrderBook& book, Rng& rng) const {
    const SortedBook sorted(book, rng);
    return clear_sorted(sorted, rng);
  }

  /// Clears a pre-ranked book into `out`, reset first (its fill capacity
  /// is kept).  Tie-breaking is already frozen into `book`'s ranking;
  /// `rng` only supplies protocol-internal randomness (e.g. the
  /// randomized-threshold lottery) and is untouched by the deterministic
  /// protocols.
  void clear_into(const SortedBook& book, Rng& rng, Outcome& out) const {
    out.reset();
    fill(book, rng, out);
  }

  /// `clear_into` a fresh Outcome.
  Outcome clear_sorted(const SortedBook& book, Rng& rng) const {
    Outcome outcome;
    clear_into(book, rng, outcome);
    return outcome;
  }

  /// Sound price bounds over every book reachable from `ranked` by
  /// inserting at most `extra_declarations` additional declarations (on
  /// either side).  Used by the manipulation-search engine for bound-based
  /// pruning: a candidate strategy's utility can never exceed what the
  /// bracket's best-case prices allow, so subtrees whose bound cannot beat
  /// the incumbent are skipped without clearing.  The default returns an
  /// invalid bracket (no promise, no pruning), which is always sound;
  /// protocols with rank-statistic pricing override it.
  virtual PriceBracket price_bracket(const SortedBook& ranked,
                                     std::size_t extra_declarations) const {
    (void)ranked;
    (void)extra_declarations;
    return {};
  }

  /// Fast path for the manipulation search: computes ONLY the aggregate
  /// fills (and rebates) of the account owning `own` — each entry names
  /// one of the account's declarations with its known rank in `ranked` —
  /// exactly as `clear_sorted` would attribute them, without materializing
  /// the Outcome.  Contract: every identity in `own` holds exactly one
  /// declaration in the book, and the computation must consume no
  /// randomness (protocols whose allocation depends on `rng` return
  /// false).  Returns false when unsupported; callers then fall back to a
  /// full `clear_sorted`.
  virtual bool account_position(const SortedBook& ranked,
                                const std::vector<OwnDeclaration>& own,
                                AccountFills* out) const {
    (void)ranked;
    (void)own;
    (void)out;
    return false;
  }

  /// Short stable name used in reports ("tpd", "pmd", ...).
  virtual std::string name() const = 0;

 protected:
  DoubleAuctionProtocol() = default;
  DoubleAuctionProtocol(const DoubleAuctionProtocol&) = default;
  DoubleAuctionProtocol& operator=(const DoubleAuctionProtocol&) = default;

 private:
  /// The clearing rule: writes this round's fills (and rebates) into `out`,
  /// which arrives empty.
  virtual void fill(const SortedBook& book, Rng& rng, Outcome& out) const = 0;
};

using ProtocolPtr = std::unique_ptr<DoubleAuctionProtocol>;

}  // namespace fnda
