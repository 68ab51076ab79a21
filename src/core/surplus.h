// Social-surplus accounting.
//
// Surplus is always computed against *true* valuations, which only the
// simulation layer knows; protocols never see them.  Definitions follow
// Section 2 of the paper: quasi-linear utilities, the auctioneer counted
// as a (non-trading) participant whose utility is its revenue.
#pragma once

#include <unordered_map>

#include "common/ids.h"
#include "common/money.h"
#include "core/order_book.h"
#include "core/outcome.h"

namespace fnda {

struct SingleUnitInstance;

/// True per-identity valuations (b*_x for buyers, s*_y for sellers).
/// An identity appears in at most one side's map.
struct TrueValuations {
  std::unordered_map<IdentityId, Money> buyer_values;
  std::unordered_map<IdentityId, Money> seller_values;
};

/// Surplus decomposition for one outcome.
struct SurplusReport {
  /// Sum of all participants' utilities including the auctioneer.  Because
  /// transfers cancel, this equals the sum over trades of
  /// (buyer's true value - seller's true value).
  double total = 0.0;
  /// Total minus the auctioneer's revenue: what the traders keep.
  double except_auctioneer = 0.0;
  /// The auctioneer's revenue.
  double auctioneer = 0.0;
  /// Sum of buyers' utilities (true value minus payment, per unit bought).
  double buyers = 0.0;
  /// Sum of sellers' utilities (receipt minus true value, per unit sold).
  double sellers = 0.0;
};

/// Computes the surplus realised by `outcome` under `truth`.  Every filled
/// identity must have a true valuation on the matching side; a missing
/// entry throws std::out_of_range (it indicates a wiring bug upstream).
SurplusReport realized_surplus(const Outcome& outcome,
                               const TrueValuations& truth);

/// The same report for a truthful market, read straight from the
/// instance's value vectors instead of identity maps: equals
/// `realized_surplus(outcome, instantiate_truthful(instance).truth)` bit
/// for bit (core/instance.h's identity convention), and throws
/// std::out_of_range for a fill identity outside that convention.
SurplusReport realized_surplus(const Outcome& outcome,
                               const SingleUnitInstance& instance);

/// The Pareto-efficient surplus of a book of *true* values: buyers/sellers
/// (1)..(k) trade, k per SortedBook::efficient_trade_count().
double efficient_surplus(const SortedBook& true_value_book);

}  // namespace fnda
