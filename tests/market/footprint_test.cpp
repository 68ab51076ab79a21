// Heap footprint of the sharded exchange.
//
// This binary replaces global operator new with a byte and call counter
// (which is why it is its own executable) and bounds two things:
//
//  - Construction.  The exchange declares its fabric
//    ShardTopology::kIsolated, so no message can ever cross shards and no
//    cross-shard mailbox ring may be reserved.  A 65,536-slot ring is
//    several MB per shard; constructing an exchange stays far below one.
//  - Trader state.  Traders live in one dense population per shard, so
//    adding them and running steady rounds allocates per population, not
//    per trader.  The bounds (1.5 allocations per trader added, 0.12 per
//    trader per round) leave no room for a per-trader heap object, nor
//    for per-trader sets that grow as rounds go by.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "protocols/tpd.h"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace fnda {
namespace {

/// Bytes allocated while constructing (not destroying) an empty exchange.
std::size_t construction_bytes(std::size_t shards) {
  const TpdProtocol tpd(Money::from_units(50));
  MultiExchangeConfig config;
  config.shards = shards;
  const std::size_t before = g_allocated_bytes.load();
  MultiServerExchange exchange(tpd, config);
  return g_allocated_bytes.load() - before;
}

TEST(ExchangeFootprintTest, IsolatedExchangeReservesNoCrossShardRing) {
  constexpr std::size_t kOneMiB = std::size_t{1} << 20;
  const std::size_t one = construction_bytes(1);
  const std::size_t four = construction_bytes(4);
  EXPECT_GT(one, 0u);
  EXPECT_LT(four, kOneMiB) << "a 4-shard exchange allocated " << four
                           << " bytes at construction";
  // Per-shard cost: three extra shard worlds, none carrying a ring.
  EXPECT_LT(four - one, kOneMiB / 2);
}

/// The ZI session run_throughput_session drives at its defaults (10k
/// traders on 4 shards at 1 thread), for 26 rounds.
TEST(ExchangeFootprintTest, TraderPopulationAllocatesPerShardNotPerTrader) {
  constexpr std::size_t kRounds = 26;
  const ThroughputConfig zi;
  const TpdProtocol tpd(Money::from_units(50));
  MultiExchangeConfig config;
  config.shards = zi.shards;
  config.threads = zi.threads;
  config.bus.base_latency = zi.base_latency;
  config.bus.jitter = zi.jitter;
  config.server.domain =
      ValueDomain{Money::from_units(0), Money::from_units(zi.value_high)};
  config.server.retained_rounds = zi.retained_rounds;
  config.initial_cash = MultiServerExchange::zi_endowment(kRounds);
  config.seed = zi.seed;
  MultiServerExchange exchange(tpd, config);

  std::size_t before = g_allocations.load();
  exchange.add_zi_traders(zi.clients, zi.value_low, zi.value_high, kRounds);
  const std::size_t populate = g_allocations.load() - before;
  EXPECT_LE(populate, 15'000u)
      << "adding " << zi.clients << " traders allocated " << populate
      << " times";

  for (std::size_t round = 0; round < kRounds; ++round) {
    before = g_allocations.load();
    exchange.run_round(zi.open_for);
    const std::size_t allocations = g_allocations.load() - before;
    // Round 0 sizes every per-round buffer (book lanes, envelope slab,
    // round arenas) for the first time; later rounds reuse them.
    if (round == 0) continue;
    EXPECT_LE(allocations, 1'200u)
        << "round " << round << " allocated " << allocations << " times";
  }
}

}  // namespace
}  // namespace fnda
