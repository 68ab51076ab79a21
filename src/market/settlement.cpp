#include "market/settlement.h"

namespace fnda {

void SettlementEngine::bind_metrics(obs::MetricsRegistry& registry) {
  delivered_counter_ = &registry.counter("fnda_settlement_delivered_total");
  failed_counter_ = &registry.counter("fnda_settlement_failed_total");
  confiscated_micros_counter_ =
      &registry.counter("fnda_settlement_confiscated_micros_total");
  spread_micros_counter_ =
      &registry.counter("fnda_settlement_spread_micros_total");
}

SettlementReport SettlementEngine::settle(RoundId round,
                                          const Outcome& outcome) {
  SettlementReport report;
  report.round = round;

  std::vector<const Fill*> buys;
  std::vector<const Fill*> sells;
  buys.reserve(outcome.fills().size());
  sells.reserve(outcome.fills().size());
  for (const Fill& fill : outcome.fills()) {
    (fill.side == Side::kBuyer ? buys : sells).push_back(&fill);
  }

  const AccountId exchange = IdentityRegistry::exchange_account();
  const std::size_t pairs = std::min(buys.size(), sells.size());
  report.deliveries.reserve(pairs);
  for (std::size_t t = 0; t < pairs; ++t) {
    Delivery delivery;
    delivery.buyer = buys[t]->identity;
    delivery.seller = sells[t]->identity;
    delivery.buyer_account = registry_.owner(delivery.buyer);
    delivery.seller_account = registry_.owner(delivery.seller);

    if (goods_.transfer_unit(delivery.seller_account,
                             delivery.buyer_account)) {
      delivery.delivered = true;
      delivery.buyer_paid = buys[t]->price;
      delivery.seller_received = sells[t]->price;
      cash_.transfer(delivery.buyer_account, exchange, delivery.buyer_paid);
      cash_.transfer(exchange, delivery.seller_account,
                     delivery.seller_received);
      report.exchange_spread +=
          delivery.buyer_paid - delivery.seller_received;
    } else {
      // Discovered false-name (or otherwise insolvent) seller: cancel the
      // pair and seize the deposit.
      delivery.delivered = false;
      delivery.confiscated = escrow_.confiscate(delivery.seller, exchange);
      report.confiscated_total += delivery.confiscated;
      ++report.failed;
    }
    report.deliveries.push_back(delivery);
  }
  if (delivered_counter_ != nullptr) {
    delivered_counter_->add(report.deliveries.size() - report.failed);
    failed_counter_->add(report.failed);
    confiscated_micros_counter_->add(
        static_cast<std::uint64_t>(report.confiscated_total.micros()));
    spread_micros_counter_->add(
        static_cast<std::uint64_t>(report.exchange_spread.micros()));
  }
  return report;
}

}  // namespace fnda
