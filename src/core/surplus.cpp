#include "core/surplus.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.h"

namespace fnda {
namespace {

[[noreturn]] void throw_missing(const char* side) {
  throw std::out_of_range(std::string("realized_surplus: no true ") + side +
                          " valuation for a filled identity");
}

Money lookup(const std::unordered_map<IdentityId, Money>& values,
             IdentityId identity, const char* side) {
  auto it = values.find(identity);
  if (it == values.end()) throw_missing(side);
  return it->second;
}

Money lookup(const std::vector<Money>& values, std::uint64_t index,
             const char* side) {
  if (index >= values.size()) throw_missing(side);
  return values[index];
}

/// The one accumulation loop: `value_of(side, identity)` supplies the
/// filled identity's true value, so both overloads sum the same terms in
/// the same order.
template <typename ValueOf>
SurplusReport accumulate_surplus(const Outcome& outcome, ValueOf value_of) {
  SurplusReport report;
  for (const Fill& fill : outcome.fills()) {
    const Money value = value_of(fill.side, fill.identity);
    if (fill.side == Side::kBuyer) {
      report.buyers += (value - fill.price).to_double();
    } else {
      report.sellers += (fill.price - value).to_double();
    }
  }
  report.auctioneer = outcome.auctioneer_revenue().to_double();
  // Rebates are transfers from the auctioneer to participants; they raise
  // the traders' surplus and are already deducted from the auctioneer's.
  report.except_auctioneer =
      report.buyers + report.sellers + outcome.rebates_total().to_double();
  report.total = report.except_auctioneer + report.auctioneer;
  return report;
}

}  // namespace

SurplusReport realized_surplus(const Outcome& outcome,
                               const TrueValuations& truth) {
  return accumulate_surplus(outcome, [&truth](Side side, IdentityId identity) {
    return side == Side::kBuyer
               ? lookup(truth.buyer_values, identity, "buyer")
               : lookup(truth.seller_values, identity, "seller");
  });
}

SurplusReport realized_surplus(const Outcome& outcome,
                               const SingleUnitInstance& instance) {
  return accumulate_surplus(
      outcome, [&instance](Side side, IdentityId identity) {
        if (side == Side::kBuyer) {
          return lookup(instance.buyer_values, identity.value(), "buyer");
        }
        // Unsigned wrap sends identities below the base past the end.
        return lookup(instance.seller_values,
                      identity.value() - kSellerIdentityBase, "seller");
      });
}

double efficient_surplus(const SortedBook& true_value_book) {
  const std::size_t k = true_value_book.efficient_trade_count();
  double surplus = 0.0;
  for (std::size_t rank = 1; rank <= k; ++rank) {
    surplus += (true_value_book.buyer_value(rank) -
                true_value_book.seller_value(rank))
                   .to_double();
  }
  return surplus;
}

}  // namespace fnda
