// Outcome invariant checking.
//
// These checks encode the properties Section 2 demands of any acceptable
// protocol run: material feasibility, individual rationality with respect
// to *declared* values, and a budget-balancing (never subsidising)
// auctioneer.  Tests and the market server run every outcome through them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/order_book.h"
#include "core/outcome.h"

namespace fnda {

/// Validation findings; empty means the outcome satisfies every invariant.
using ValidationErrors = std::vector<std::string>;

/// Relaxations for protocols that intentionally break an invariant.
struct ValidationOptions {
  /// VCG runs a budget deficit by design; set this to skip the
  /// non-negative-auctioneer-revenue check.
  bool allow_deficit = false;
};

/// Checks `outcome` against the book it was cleared from:
///   - units bought == units sold (goods are conserved);
///   - every fill references a bid present in the book, on the right side;
///   - no single-unit bid fills more than once;
///   - declared individual rationality: a buyer never pays above its
///     declared value, a seller never receives below its declared value;
///   - auctioneer revenue is non-negative.
ValidationErrors validate_outcome(const OrderBook& book,
                                  const Outcome& outcome,
                                  const ValidationOptions& options = {});

/// Same checks against a rank-ordered view: the invariants are functions
/// of the declaration *set*, so a SortedBook (or any incrementally
/// maintained ranking of the same declarations) validates identically.
ValidationErrors validate_outcome(const SortedBook& book,
                                  const Outcome& outcome,
                                  const ValidationOptions& options = {});

/// Reusable lookup scratch.  Books assign bid ids densely (0..n-1 across
/// both sides), so the lookups become persistent-capacity arrays indexed
/// by id; a caller passing the same scratch re-validates with zero
/// allocation after warm-up.  The plain overloads above run the same path
/// through a thread-local scratch of their own.  A book whose ids are too
/// sparse to index an array falls back to per-call hash tables — same
/// errors, same order, byte-identical strings.  The market server's
/// live-book clearing path and the experiment runner each keep one.
struct ValidationScratch {
  std::vector<const BidEntry*> buyer_by_id;
  std::vector<const BidEntry*> seller_by_id;
  std::vector<std::uint32_t> fill_counts;
};

ValidationErrors validate_outcome(const SortedBook& book,
                                  const Outcome& outcome,
                                  ValidationScratch& scratch,
                                  const ValidationOptions& options = {});

/// Throws std::logic_error listing all violations if any check fails.
void expect_valid_outcome(const OrderBook& book, const Outcome& outcome,
                          const ValidationOptions& options = {});
void expect_valid_outcome(const SortedBook& book, const Outcome& outcome,
                          const ValidationOptions& options = {});
void expect_valid_outcome(const SortedBook& book, const Outcome& outcome,
                          ValidationScratch& scratch,
                          const ValidationOptions& options = {});

}  // namespace fnda
