// A trading day at the simulated exchange: three clearing rounds over the
// message bus, with one false-name attacker who gets caught by the
// security-deposit escrow at settlement.
//
//   $ ./build/examples/exchange_day
#include <iostream>
#include <string>

#include "market/multi_exchange.h"
#include "protocols/tpd.h"

int main() {
  using namespace fnda;

  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = 20010416;
  config.bus.base_latency = SimTime::millis(2);
  config.bus.jitter = SimTime::millis(1);
  MultiServerExchange exchange(tpd, config);

  // Honest traders: five buyers, five sellers.
  for (double value : {92.0, 81.0, 66.0, 54.0, 35.0}) {
    exchange.add_trader(Side::kBuyer, money(value));
  }
  for (double value : {18.0, 27.0, 42.0, 58.0, 71.0}) {
    exchange.add_trader(Side::kSeller, money(value));
  }

  // The attacker: a buyer who values the good at 60 and also submits a
  // fake *seller* bid at 30 under a second pseudonym, hoping to collect
  // the spread.  The fake bid will clear — and fail delivery.
  TradingClient& attacker = exchange.add_trader(Side::kBuyer, money(60));
  Strategy attack;
  attack.declarations = {Declaration{Side::kBuyer, money(60)},
                         Declaration{Side::kSeller, money(30)}};
  attacker.set_strategy(attack);

  for (int day_round = 0; day_round < 3; ++day_round) {
    const RoundId round = exchange.run_round(SimTime::millis(50))[0];
    const Outcome* outcome = exchange.server(0).outcome_of(round);
    const SettlementReport* settlement =
        exchange.server(0).settlement_of(round);
    std::cout << "round " << day_round << ": " << outcome->trade_count()
              << " trades, auctioneer revenue "
              << outcome->auctioneer_revenue() << ", failed deliveries "
              << settlement->failed << ", deposits confiscated "
              << settlement->confiscated_total << '\n';
  }

  std::cout << "\nattacker settled utility across the day: "
            << exchange.settled_utility(attacker) << " ("
            << exchange.audit(0).count(AuditKind::kDepositConfiscated)
            << " deposits confiscated in total, incl. honest sellers "
               "re-bidding after their unit sold)\n";

  std::cout << "\n--- audit trail (first round) ---\n";
  for (const AuditRecord& record : exchange.audit(0).for_round(RoundId{0})) {
    std::string line;
    append_line(record, line);
    std::cout << line << '\n';
  }

  std::cout << "\nbus stats: sent=" << exchange.bus_stats().sent
            << " delivered=" << exchange.bus_stats().delivered << '\n';
  return 0;
}
