// Ablation D: full exchange rounds over the message bus with a mix of
// honest traders and false-name attackers, PMD vs TPD.
//
// Measures settlement-truth outcomes: realized trader surplus, attacker
// gain over truthful play, and confiscated deposits.  The qualitative
// claim being checked: under PMD the attacks pay; under TPD they do not.
#include <iostream>

#include "common/statistics.h"
#include "market/multi_exchange.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "sim/table.h"

namespace {

using namespace fnda;

struct RoundStats {
  double attacker_utility = 0.0;
  double honest_surplus = 0.0;
  double confiscated = 0.0;
  double trades = 0.0;
};

/// One exchange round with `size` honest traders per side (values
/// U[0,100]) plus one seller-role attacker.  When `attack` is set the
/// attacker adds a false-name buyer bid just above the expected clearing
/// price (the Example 1 pattern); otherwise it plays truthfully.
RoundStats run_round(const DoubleAuctionProtocol& protocol, bool attack,
                     std::uint64_t seed) {
  MultiExchangeConfig config;
  config.shards = 1;
  config.seed = seed;
  MultiServerExchange exchange(protocol, config);
  Rng rng(seed * 977 + 1);

  constexpr std::size_t kSize = 20;
  for (std::size_t i = 0; i < kSize; ++i) {
    exchange.add_trader(Side::kBuyer, rng.uniform_money(Money::from_units(0),
                                                        Money::from_units(100)));
    exchange.add_trader(Side::kSeller, rng.uniform_money(Money::from_units(0),
                                                         Money::from_units(100)));
  }
  // Attacker: a seller with a mid-range value, trading in most draws.
  TradingClient& attacker = exchange.add_trader(Side::kSeller, money(30));
  if (attack) {
    Strategy strategy;
    strategy.declarations = {Declaration{Side::kSeller, money(30)},
                             Declaration{Side::kBuyer, money(55)}};
    attacker.set_strategy(strategy);
  }

  exchange.run_round();

  RoundStats stats;
  stats.attacker_utility = exchange.settled_utility(attacker);
  for (const auto& trader : exchange.traders()) {
    if (trader == &attacker) continue;
    stats.honest_surplus += exchange.settled_utility(*trader);
  }
  const RoundId round{0};
  if (const auto* settlement = exchange.server(0).settlement_of(round)) {
    stats.confiscated = settlement->confiscated_total.to_double();
  }
  if (const auto* outcome = exchange.server(0).outcome_of(round)) {
    stats.trades = static_cast<double>(outcome->trade_count());
  }
  return stats;
}

}  // namespace

int main() {
  const PmdProtocol pmd;
  const TpdProtocol tpd(money(50));

  std::cout << "== End-to-end exchange rounds: 20 honest traders/side + "
               "1 seller attacker (fake buyer bid @55), 200 paired rounds "
               "==\n";
  std::cout << "Each round runs twice with the same population: attacker "
               "truthful vs attacking; delta = u(attack) - u(truth).\n\n";
  TextTable table({"protocol", "mean delta", "max delta", "% rounds delta>0",
                   "% rounds delta<0", "honest surplus (attacked)"});

  for (const DoubleAuctionProtocol* protocol :
       {static_cast<const DoubleAuctionProtocol*>(&pmd),
        static_cast<const DoubleAuctionProtocol*>(&tpd)}) {
    RunningStats delta, surplus;
    int gains = 0;
    int losses = 0;
    constexpr int kRounds = 200;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      const std::uint64_t seed = 10'000 + round;
      const RoundStats truthful = run_round(*protocol, false, seed);
      const RoundStats attacked = run_round(*protocol, true, seed);
      const double d = attacked.attacker_utility - truthful.attacker_utility;
      delta.add(d);
      surplus.add(attacked.honest_surplus);
      if (d > 1e-9) ++gains;
      if (d < -1e-9) ++losses;
    }
    table.add_row({protocol->name(), format_fixed(delta.mean(), 3),
                   format_fixed(delta.max(), 3),
                   format_fixed(100.0 * gains / kRounds, 1) + "%",
                   format_fixed(100.0 * losses / kRounds, 1) + "%",
                   format_fixed(surplus.mean(), 1)});
  }
  std::cout << table
            << "\nExpected: under PMD the blind attack sometimes pays "
               "(delta > 0 in some rounds); under TPD it never does — "
               "sellers receive exactly r regardless, and a fake buyer "
               "bid can only cost the attacker.\n";
  return 0;
}
