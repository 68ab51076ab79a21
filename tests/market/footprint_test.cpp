// Construction footprint of the sharded exchange.
//
// The exchange declares its fabric ShardTopology::kIsolated, so no
// message can ever cross shards and no cross-shard mailbox ring may be
// reserved.  A 65,536-slot ring is several MB per shard; this binary
// replaces global operator new with a byte counter (which is why it is
// its own executable) and bounds what constructing an exchange allocates
// far below one such ring.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "market/multi_exchange.h"
#include "protocols/tpd.h"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
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

}  // namespace
}  // namespace fnda
