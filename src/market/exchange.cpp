#include "market/exchange.h"

#include <stdexcept>

namespace fnda {

ExchangeSimulation::ExchangeSimulation(const DoubleAuctionProtocol& protocol,
                                       ExchangeConfig config)
    : config_(config) {
  Rng root(config_.seed);
  bus_ = std::make_unique<MessageBus>(queue_, config_.bus, root.split());
  escrow_ = std::make_unique<EscrowService>(cash_, registry_.lattice());
  settlement_ = std::make_unique<SettlementEngine>(registry_, cash_, goods_,
                                                   *escrow_);
  server_ = std::make_unique<AuctionServer>(
      "exchange", queue_, *bus_, protocol, *escrow_, *settlement_, audit_,
      root.split(), config_.server);
}

TradingClient& ExchangeSimulation::add_trader(Side role, Money true_value) {
  return add_trader(role, true_value, Strategy::truthful(role, true_value));
}

TradingClient& ExchangeSimulation::add_trader(Side role, Money true_value,
                                              Strategy strategy) {
  const AccountId account = registry_.create_account();
  cash_.grant(account, config_.initial_cash);
  if (role == Side::kSeller) goods_.grant(account, 1);

  const std::string address = "trader-" + std::to_string(next_client_++);
  auto client = std::make_unique<TradingClient>(
      address, account, role, true_value, queue_, *bus_, registry_, *escrow_,
      server_->address(), config_.client);
  client->set_strategy(std::move(strategy));
  server_->subscribe(address);
  traders_.push_back(std::move(client));
  return *traders_.back();
}

RoundId ExchangeSimulation::run_round(SimTime open_for) {
  const RoundId round = server_->open_round(open_for);
  queue_.run();
  return round;
}

Money ExchangeSimulation::close_market() {
  if (server_->round_open()) {
    throw std::logic_error("close_market: a round is still open");
  }
  return escrow_->refund_all(registry_, audit_, queue_.now());
}

double ExchangeSimulation::settled_utility(const TradingClient& client) const {
  const AccountId account = client.account();
  // Wealth = spendable cash + deposits still in escrow (they remain the
  // account's money unless confiscated) + the valued unit, if held.
  Money escrowed;
  for (IdentityId identity : client.identities()) {
    escrowed += escrow_->held(identity);
  }
  const double cash_now = (cash_.balance(account) + escrowed).to_double();
  const double cash_initial = config_.initial_cash.to_double();

  const std::size_t units = goods_.units(account);
  const double value = client.true_value().to_double();
  const double goods_now = units > 0 ? value : 0.0;  // one unit is valued
  const double goods_initial = client.role() == Side::kSeller ? value : 0.0;

  return (cash_now - cash_initial) + (goods_now - goods_initial);
}

}  // namespace fnda
