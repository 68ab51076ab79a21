#include "market/escrow.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace fnda {

void EscrowService::bind_metrics(obs::MetricsRegistry& registry) {
  posted_counter_ = &registry.counter("fnda_escrow_posted_total");
  refunded_counter_ = &registry.counter("fnda_escrow_refunded_total");
  seized_counter_ = &registry.counter("fnda_escrow_seized_total");
  seized_micros_counter_ =
      &registry.counter("fnda_escrow_seized_micros_total");
  registry.gauge_fn(
      "fnda_escrow_held_micros",
      [this] { return total_held().micros(); }, obs::GaugeMerge::kSum);
}

void EscrowService::post(IdentityId identity, AccountId payer, Money amount) {
  const std::optional<std::size_t> slot = lattice_.slot_of(identity);
  if (!slot || *slot >= deposits_.max_size()) {
    throw std::out_of_range("EscrowService::post: identity off the lattice");
  }
  if (*slot >= deposits_.size()) deposits_.resize(*slot + 1);
  cash_.transfer(payer, CashLedger::escrow_account(), amount);
  deposits_[*slot] += amount;
  held_total_ += amount;
  if (posted_counter_ != nullptr) posted_counter_->add();
}

void EscrowService::release(std::size_t slot, AccountId to) {
  cash_.transfer(CashLedger::escrow_account(), to, deposits_[slot]);
  held_total_ -= deposits_[slot];
  deposits_[slot] = Money{};
}

void EscrowService::refund(IdentityId identity, AccountId payee) {
  const std::optional<std::size_t> slot = lattice_.slot_of(identity);
  if (!slot || *slot >= deposits_.size() || deposits_[*slot] == Money{}) {
    return;
  }
  release(*slot, payee);
  if (refunded_counter_ != nullptr) refunded_counter_->add();
}

Money EscrowService::confiscate(IdentityId identity, AccountId exchange) {
  const std::optional<std::size_t> slot = lattice_.slot_of(identity);
  if (!slot || *slot >= deposits_.size() || deposits_[*slot] == Money{}) {
    return Money{};
  }
  const Money seized = deposits_[*slot];
  release(*slot, exchange);
  if (seized_counter_ != nullptr) {
    seized_counter_->add();
    seized_micros_counter_->add(static_cast<std::uint64_t>(seized.micros()));
  }
  return seized;
}

Money EscrowService::refund_all(const IdentityRegistry& registry,
                               AuditLog& audit, SimTime now) {
  Money refunded;
  for (std::size_t slot = 0; slot < deposits_.size(); ++slot) {
    const Money amount = deposits_[slot];
    if (amount <= Money{}) continue;
    const IdentityId identity = lattice_.at(slot);
    release(slot, registry.owner(identity));
    if (refunded_counter_ != nullptr) refunded_counter_->add();
    refunded += amount;
    audit.append(now, RoundId::invalid(),
                 AuditDetail::deposit_refunded(identity, amount));
  }
  return refunded;
}

Money EscrowService::held(IdentityId identity) const {
  const std::optional<std::size_t> slot = lattice_.slot_of(identity);
  return slot && *slot < deposits_.size() ? deposits_[*slot] : Money{};
}

std::vector<IdentityId> EscrowService::identities_with_deposits() const {
  std::vector<IdentityId> result;
  for (std::size_t slot = 0; slot < deposits_.size(); ++slot) {
    if (deposits_[slot] > Money{}) result.push_back(lattice_.at(slot));
  }
  return result;
}

std::size_t EscrowService::holder_count() const {
  return static_cast<std::size_t>(
      std::count_if(deposits_.begin(), deposits_.end(),
                    [](Money amount) { return amount > Money{}; }));
}

}  // namespace fnda
