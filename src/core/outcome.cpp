#include "core/outcome.h"

#include <stdexcept>

namespace fnda {

void Outcome::reset() {
  fills_.clear();
  buy_count_ = 0;
  sell_count_ = 0;
  buyer_payments_ = Money{};
  seller_receipts_ = Money{};
  aggregates_built_ = false;
  rebates_.clear();
  rebates_total_ = Money{};
}

void Outcome::reserve(std::size_t trades) {
  fills_.reserve(2 * trades);
}

void Outcome::add_buy(BidId bid, IdentityId identity, Money price) {
  fills_.push_back(Fill{Side::kBuyer, bid, identity, price});
  ++buy_count_;
  buyer_payments_ += price;
  aggregates_built_ = false;
}

void Outcome::add_sell(BidId bid, IdentityId identity, Money price) {
  fills_.push_back(Fill{Side::kSeller, bid, identity, price});
  ++sell_count_;
  seller_receipts_ += price;
  aggregates_built_ = false;
}

void Outcome::ensure_aggregates() const {
  if (aggregates_built_) return;
  per_identity_.clear();
  fills_per_bid_.clear();
  per_identity_.reserve(fills_.size());
  fills_per_bid_.reserve(fills_.size());
  for (const Fill& fill : fills_) {
    auto& entry = per_identity_[fill.identity];
    if (fill.side == Side::kBuyer) {
      ++entry.bought;
      entry.paid += fill.price;
    } else {
      ++entry.sold;
      entry.received += fill.price;
    }
    ++fills_per_bid_[fill.bid];
  }
  aggregates_built_ = true;
}

std::size_t Outcome::units_bought(IdentityId identity) const {
  ensure_aggregates();
  auto it = per_identity_.find(identity);
  return it == per_identity_.end() ? 0 : it->second.bought;
}

std::size_t Outcome::units_sold(IdentityId identity) const {
  ensure_aggregates();
  auto it = per_identity_.find(identity);
  return it == per_identity_.end() ? 0 : it->second.sold;
}

Money Outcome::paid_by(IdentityId identity) const {
  ensure_aggregates();
  auto it = per_identity_.find(identity);
  return it == per_identity_.end() ? Money{} : it->second.paid;
}

Money Outcome::received_by(IdentityId identity) const {
  ensure_aggregates();
  auto it = per_identity_.find(identity);
  return it == per_identity_.end() ? Money{} : it->second.received;
}

void Outcome::add_rebate(IdentityId identity, Money amount) {
  if (amount < Money{}) {
    throw std::invalid_argument("Outcome::add_rebate: negative rebate");
  }
  rebates_[identity] += amount;
  rebates_total_ += amount;
}

Money Outcome::rebate_of(IdentityId identity) const {
  auto it = rebates_.find(identity);
  return it == rebates_.end() ? Money{} : it->second;
}

bool Outcome::bid_filled(BidId bid) const {
  ensure_aggregates();
  return fills_per_bid_.contains(bid);
}

}  // namespace fnda
