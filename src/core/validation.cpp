#include "core/validation.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace fnda {

namespace {

/// Hash-table lookup context: builds per-check maps, works for any id
/// assignment.  The fallback for books whose ids are too sparse to index
/// an array, and the reference semantics the dense lookups must match:
/// first occurrence of a duplicated id wins.
struct MapContext {
  std::unordered_map<BidId, const BidEntry*> buyer_bids;
  std::unordered_map<BidId, const BidEntry*> seller_bids;
  std::unordered_map<BidId, std::size_t> fill_counts;

  MapContext(const std::vector<BidEntry>& buyers,
             const std::vector<BidEntry>& sellers) {
    for (const BidEntry& e : buyers) buyer_bids.emplace(e.id, &e);
    for (const BidEntry& e : sellers) seller_bids.emplace(e.id, &e);
  }
  const BidEntry* find(Side side, BidId id) const {
    const auto& lane = side == Side::kBuyer ? buyer_bids : seller_bids;
    const auto it = lane.find(id);
    return it == lane.end() ? nullptr : it->second;
  }
  bool repeat_fill(BidId id) { return ++fill_counts[id] > 1; }
};

/// Shared core: every invariant is a function of the declaration set, so
/// both the raw-book and ranked-view overloads funnel through the lanes;
/// the context only decides how bid-id lookup is implemented, so error
/// content and order are identical across contexts.  `repeat_fill` is
/// asked only for bids `find` located.
template <typename Context>
ValidationErrors validate_lanes(const Outcome& outcome,
                                const ValidationOptions& options,
                                Context& ctx) {
  ValidationErrors errors;

  if (outcome.buy_fill_count() != outcome.sell_fill_count()) {
    std::ostringstream os;
    os << "goods not conserved: " << outcome.buy_fill_count()
       << " units bought vs " << outcome.sell_fill_count() << " sold";
    errors.push_back(os.str());
  }

  for (const Fill& fill : outcome.fills()) {
    const BidEntry* found = ctx.find(fill.side, fill.bid);
    if (found == nullptr) {
      std::ostringstream os;
      os << "fill references unknown " << to_string(fill.side) << " bid "
         << fill.bid;
      errors.push_back(os.str());
      continue;
    }
    const BidEntry& bid = *found;
    if (bid.identity != fill.identity) {
      std::ostringstream os;
      os << "fill identity " << fill.identity << " does not match bid "
         << fill.bid << " identity " << bid.identity;
      errors.push_back(os.str());
    }
    if (fill.side == Side::kBuyer && fill.price > bid.value) {
      std::ostringstream os;
      os << "buyer IR violated: bid " << fill.bid << " declared " << bid.value
         << " but pays " << fill.price;
      errors.push_back(os.str());
    }
    if (fill.side == Side::kSeller && fill.price < bid.value) {
      std::ostringstream os;
      os << "seller IR violated: bid " << fill.bid << " declared " << bid.value
         << " but receives " << fill.price;
      errors.push_back(os.str());
    }
    if (ctx.repeat_fill(fill.bid)) {
      std::ostringstream os;
      os << "single-unit bid " << fill.bid << " filled more than once";
      errors.push_back(os.str());
    }
  }

  if (!options.allow_deficit && outcome.auctioneer_revenue() < Money{}) {
    std::ostringstream os;
    os << "auctioneer subsidises the market: revenue "
       << outcome.auctioneer_revenue();
    errors.push_back(os.str());
  }

  return errors;
}

/// Dense eligibility: every bid id must index a reasonably sized array.
/// Books assign ids 0..n-1 across both sides, so the limit 2n covers the
/// real callers while a pathological sparse book falls back to hashing.
bool dense_ids(const std::vector<BidEntry>& buyers,
               const std::vector<BidEntry>& sellers, std::size_t& id_limit) {
  const std::size_t total = buyers.size() + sellers.size();
  const std::size_t limit = 2 * total + 1;
  std::uint64_t max_id = 0;
  for (const BidEntry& e : buyers) max_id = std::max(max_id, e.id.value());
  for (const BidEntry& e : sellers) max_id = std::max(max_id, e.id.value());
  if (total == 0 || max_id >= limit) return false;
  id_limit = static_cast<std::size_t>(max_id) + 1;
  return true;
}

void throw_on_errors(const ValidationErrors& errors) {
  if (errors.empty()) return;
  std::ostringstream os;
  os << "invalid outcome (" << errors.size() << " violation(s)):";
  for (const std::string& e : errors) os << "\n  - " << e;
  throw std::logic_error(os.str());
}

/// The plain overloads' scratch: one per thread, so concurrent callers
/// (the parallel experiment runner's workers) never share it.
ValidationScratch& thread_scratch() {
  thread_local ValidationScratch scratch;
  return scratch;
}

}  // namespace

void ValidationScratch::bind(const OrderBook& book) {
  bind_lanes(book.buyers(), book.sellers());
}

void ValidationScratch::bind(const SortedBook& book) {
  bind_lanes(book.buyers(), book.sellers());
}

void ValidationScratch::bind_lanes(const std::vector<BidEntry>& buyers,
                                   const std::vector<BidEntry>& sellers) {
  buyers_ = &buyers;
  sellers_ = &sellers;
  std::size_t id_limit = 0;
  dense_ = dense_ids(buyers, sellers, id_limit);
  if (!dense_) return;
  buyer_by_id_.assign(id_limit, nullptr);
  seller_by_id_.assign(id_limit, nullptr);
  filled_in_.assign(id_limit, 0);
  check_stamp_ = 0;
  for (const BidEntry& e : buyers) {
    const BidEntry*& slot = buyer_by_id_[e.id.value()];
    if (slot == nullptr) slot = &e;
  }
  for (const BidEntry& e : sellers) {
    const BidEntry*& slot = seller_by_id_[e.id.value()];
    if (slot == nullptr) slot = &e;
  }
}

ValidationErrors ValidationScratch::check(const Outcome& outcome,
                                          const ValidationOptions& options) {
  if (buyers_ == nullptr) {
    throw std::logic_error("ValidationScratch::check: no book bound");
  }
  if (!dense_) {
    MapContext ctx(*buyers_, *sellers_);
    return validate_lanes(outcome, options, ctx);
  }
  if (++check_stamp_ == 0) {  // the stamp wrapped: forget every old one
    std::fill(filled_in_.begin(), filled_in_.end(), 0u);
    check_stamp_ = 1;
  }
  // Direct index by bid id over the bound arrays.
  struct DenseContext {
    ValidationScratch& scratch;
    const BidEntry* find(Side side, BidId id) const {
      const auto& lane = side == Side::kBuyer ? scratch.buyer_by_id_
                                              : scratch.seller_by_id_;
      return id.value() < lane.size() ? lane[id.value()] : nullptr;
    }
    bool repeat_fill(BidId id) {
      std::uint32_t& stamp = scratch.filled_in_[id.value()];
      const bool repeat = stamp == scratch.check_stamp_;
      stamp = scratch.check_stamp_;
      return repeat;
    }
  };
  DenseContext ctx{*this};
  return validate_lanes(outcome, options, ctx);
}

void ValidationScratch::expect(const Outcome& outcome,
                               const ValidationOptions& options) {
  throw_on_errors(check(outcome, options));
}

ValidationErrors validate_outcome(const OrderBook& book,
                                  const Outcome& outcome,
                                  const ValidationOptions& options) {
  ValidationScratch& scratch = thread_scratch();
  scratch.bind(book);
  return scratch.check(outcome, options);
}

ValidationErrors validate_outcome(const SortedBook& book,
                                  const Outcome& outcome,
                                  const ValidationOptions& options) {
  return validate_outcome(book, outcome, thread_scratch(), options);
}

ValidationErrors validate_outcome(const SortedBook& book,
                                  const Outcome& outcome,
                                  ValidationScratch& scratch,
                                  const ValidationOptions& options) {
  scratch.bind(book);
  return scratch.check(outcome, options);
}

void expect_valid_outcome(const OrderBook& book, const Outcome& outcome,
                          const ValidationOptions& options) {
  throw_on_errors(validate_outcome(book, outcome, options));
}

void expect_valid_outcome(const SortedBook& book, const Outcome& outcome,
                          const ValidationOptions& options) {
  throw_on_errors(validate_outcome(book, outcome, options));
}

void expect_valid_outcome(const SortedBook& book, const Outcome& outcome,
                          ValidationScratch& scratch,
                          const ValidationOptions& options) {
  throw_on_errors(validate_outcome(book, outcome, scratch, options));
}

}  // namespace fnda
