#include "mechanism/dynamics.h"

namespace fnda {
namespace {

/// Identity block reserved per agent: agent a's d-th declaration bids as
/// IdentityId{a * kBlock + d}.
constexpr std::uint64_t kBlock = 64;

OrderBook build_book(const SingleUnitInstance& instance,
                     const std::vector<AgentState>& agents) {
  OrderBook book(instance.domain);
  for (std::size_t a = 0; a < agents.size(); ++a) {
    const Strategy& strategy = agents[a].strategy;
    for (std::size_t d = 0; d < strategy.declarations.size(); ++d) {
      book.add(strategy.declarations[d].side, IdentityId{a * kBlock + d},
               strategy.declarations[d].value);
    }
  }
  return book;
}

AccountPosition position_of(const Outcome& outcome, std::size_t agent,
                            std::size_t declarations) {
  AccountPosition position;
  for (std::size_t d = 0; d < declarations; ++d) {
    const IdentityId identity{agent * kBlock + d};
    position.bought += outcome.units_bought(identity);
    position.sold += outcome.units_sold(identity);
    position.paid += outcome.paid_by(identity);
    position.received += outcome.received_by(identity);
    position.received += outcome.rebate_of(identity);  // rebate protocols
  }
  return position;
}

/// Mean utility of `agent` under the profile, averaged over replicates
/// with common random numbers.
double profile_utility(const DoubleAuctionProtocol& protocol,
                       const SingleUnitInstance& instance,
                       const std::vector<AgentState>& agents,
                       std::size_t agent, const UtilityModel& model,
                       const DynamicsConfig& config,
                       std::uint64_t base_seed) {
  const OrderBook book = build_book(instance, agents);
  double total = 0.0;
  for (std::size_t t = 0; t < config.replicates; ++t) {
    Rng rng(base_seed + 0x9e3779b97f4a7c15ULL * t);
    const Outcome outcome = protocol.clear(book, rng);
    const AccountPosition position =
        position_of(outcome, agent, agents[agent].strategy.declarations.size());
    total += model.evaluate(agents[agent].role, agents[agent].true_value,
                            position);
  }
  return total / static_cast<double>(config.replicates);
}

/// Realized surplus of a profile: sum of all agents' utilities plus the
/// auctioneer's revenue (averaged over replicates).
double profile_surplus(const DoubleAuctionProtocol& protocol,
                       const SingleUnitInstance& instance,
                       const std::vector<AgentState>& agents,
                       const DynamicsConfig& config, std::uint64_t base_seed) {
  const OrderBook book = build_book(instance, agents);
  double total = 0.0;
  for (std::size_t t = 0; t < config.replicates; ++t) {
    Rng rng(base_seed + 0x9e3779b97f4a7c15ULL * t);
    const Outcome outcome = protocol.clear(book, rng);
    double surplus = outcome.auctioneer_revenue().to_double();
    for (std::size_t a = 0; a < agents.size(); ++a) {
      const AccountPosition position =
          position_of(outcome, a, agents[a].strategy.declarations.size());
      surplus += config.scoring.evaluate(agents[a].role,
                                         agents[a].true_value, position);
    }
    total += surplus;
  }
  return total / static_cast<double>(config.replicates);
}

}  // namespace

DynamicsResult best_response_dynamics(const DoubleAuctionProtocol& protocol,
                                      const SingleUnitInstance& instance,
                                      const DynamicsConfig& config) {
  DynamicsResult result;
  for (Money v : instance.buyer_values) {
    result.agents.push_back(
        AgentState{Side::kBuyer, v, Strategy::truthful(Side::kBuyer, v), 0.0});
  }
  for (Money v : instance.seller_values) {
    result.agents.push_back(AgentState{Side::kSeller, v,
                                       Strategy::truthful(Side::kSeller, v),
                                       0.0});
  }

  Rng seeder(config.seed);
  const std::uint64_t surplus_seed = seeder();
  result.truthful_surplus = profile_surplus(protocol, instance, result.agents,
                                            config, surplus_seed);

  const std::vector<Money> grid = candidate_values(instance, Money{});

  for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
    ++result.sweeps;
    bool any_update = false;
    for (std::size_t a = 0; a < result.agents.size(); ++a) {
      // Best response of agent a against everyone else's current play.
      // The same evaluation seed is used for every candidate (common
      // random numbers), fresh per (sweep, agent).
      const std::uint64_t eval_seed = seeder();
      std::vector<AgentState> trial = result.agents;
      double best = profile_utility(protocol, instance, trial, a,
                                    config.utility, config, eval_seed);
      Strategy best_strategy = result.agents[a].strategy;
      bool improved = false;

      enumerate_strategies(grid, config.search, [&](const Strategy& s) {
        trial[a].strategy = s;
        const double utility = profile_utility(protocol, instance, trial, a,
                                               config.utility, config,
                                               eval_seed);
        if (utility > best + config.epsilon) {
          best = utility;
          best_strategy = s;
          improved = true;
        }
      });

      if (improved) {
        result.agents[a].strategy = best_strategy;
        ++result.updates;
        any_update = true;
      }
    }
    if (!any_update) {
      result.converged = true;
      break;
    }
  }

  result.final_surplus = profile_surplus(protocol, instance, result.agents,
                                         config, surplus_seed);
  for (std::size_t a = 0; a < result.agents.size(); ++a) {
    result.agents[a].utility =
        profile_utility(protocol, instance, result.agents, a, config.scoring,
                        config, surplus_seed);
    const Strategy truthful = Strategy::truthful(result.agents[a].role,
                                                 result.agents[a].true_value);
    if (!(result.agents[a].strategy.declarations ==
          truthful.declarations)) {
      ++result.deviators;
    }
  }
  return result;
}

}  // namespace fnda
