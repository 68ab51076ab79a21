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

/// Reusable lookups over one book, bound once and then checking every
/// outcome cleared from it.  Books assign bid ids densely (0..n-1 across
/// both sides), so `bind` indexes the declarations in persistent-capacity
/// arrays by id, and `check` finds each fill's bid by index and spots a
/// repeated fill by a per-check stamp: after warm-up neither allocates.  A
/// book whose ids are too sparse to index an array falls back to per-check
/// hash tables — same errors, same order, byte-identical strings.  The
/// lookups point into the bound book's lanes, so bind again after the book
/// changes.  The scratch overloads below are bind + check; the plain
/// overloads above run the same path through a thread-local scratch.  The
/// market server's live-book clearing path and the experiment runner's
/// workers each keep one.
class ValidationScratch {
 public:
  void bind(const OrderBook& book);
  void bind(const SortedBook& book);

  /// The findings of `validate_outcome` for `outcome` against the bound
  /// book.
  ValidationErrors check(const Outcome& outcome,
                         const ValidationOptions& options = {});
  /// Throws std::logic_error listing all violations, as
  /// `expect_valid_outcome` does.
  void expect(const Outcome& outcome, const ValidationOptions& options = {});

  /// True when the bound book's ids index the arrays (no hash fallback).
  bool dense() const { return dense_; }

 private:
  void bind_lanes(const std::vector<BidEntry>& buyers,
                  const std::vector<BidEntry>& sellers);

  const std::vector<BidEntry>* buyers_ = nullptr;
  const std::vector<BidEntry>* sellers_ = nullptr;
  bool dense_ = false;
  std::vector<const BidEntry*> buyer_by_id_;
  std::vector<const BidEntry*> seller_by_id_;
  /// The check that last filled each id; a fill whose id already carries
  /// the current check's stamp is a repeat.
  std::vector<std::uint32_t> filled_in_;
  std::uint32_t check_stamp_ = 0;
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
