#include "market/throughput.h"

#include "market/multi_exchange.h"

namespace fnda {

ThroughputResult run_throughput_session(const DoubleAuctionProtocol& protocol,
                                        const ThroughputConfig& config) {
  MultiExchangeConfig mx;
  mx.shards = config.shards;
  mx.threads = config.threads;
  mx.bus.base_latency = config.base_latency;
  mx.bus.jitter = config.jitter;
  mx.bus.drop_probability = config.drop_probability;
  mx.bus.duplicate_probability = config.duplicate_probability;
  mx.server.domain =
      ValueDomain{Money::from_units(0), Money::from_units(config.value_high)};
  mx.server.retained_rounds = config.retained_rounds;
  mx.initial_cash = MultiServerExchange::zi_endowment(config.rounds);
  mx.seed = config.seed;
  mx.adaptive_epochs = config.adaptive;
  mx.telemetry = config.telemetry;

  MultiServerExchange exchange(protocol, mx);
  exchange.add_zi_traders(config.clients, config.value_low, config.value_high,
                          config.rounds);

  ThroughputResult result;
  result.clients = config.clients;
  result.shards = exchange.shard_count();
  result.threads = exchange.thread_count();
  for (std::size_t r = 0; r < config.rounds; ++r) {
    const std::vector<RoundId> rounds = exchange.run_round(config.open_for);
    for (std::size_t shard = 0; shard < rounds.size(); ++shard) {
      if (const Outcome* outcome = exchange.server(shard).outcome_of(
              rounds[shard])) {
        result.trades += outcome->trade_count();
      }
    }
    ++result.rounds;
  }
  for (const auto& trader : exchange.traders()) {
    result.bids_accepted += trader->bids_accepted();
  }
  result.sim_time = exchange.now();
  result.bus = exchange.bus_stats();
  result.shard_bus = exchange.shard_bus_stats();
  result.book = exchange.book_stats();
  result.epoch = exchange.epoch_totals();
  if (const obs::SessionTelemetry* telemetry = exchange.telemetry()) {
    result.metrics = telemetry->merged_snapshot();
    result.trace = telemetry->flush_trace();
  }
  return result;
}

}  // namespace fnda
