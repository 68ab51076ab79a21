// Heap footprint of the sharded exchange.
//
// This binary replaces global operator new with a byte, call and
// live-byte counter (which is why it is its own executable) and bounds
// four things:
//
//  - Construction.  No message ever crosses shards, so a shard world
//    holds no cross-shard buffer; constructing an exchange stays far
//    below one MB.
//  - Trader state.  Traders live in one dense population per shard, so
//    adding them and running steady rounds allocates per population, not
//    per trader.  The bounds (1.5 allocations per trader added, 0.04 per
//    trader per round) leave no room for a per-trader heap object, nor
//    for per-trader sets that grow as rounds go by.
//  - The event queue.  Drained wheel buckets hand their buffers to the
//    next bucket opened, so a warmed-up queue allocates nothing and holds
//    memory for the buckets occupied at once, not for every wheel slot.
//  - Session memory.  The tables that grow with rounds (audit log,
//    identity owners, escrow deposits, trader threads) hold their live
//    content plus at most one partly filled block, never a doubling
//    vector's slack.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "market/clock.h"
#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "protocols/tpd.h"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};
std::atomic<std::size_t> g_allocations{0};
/// Usable bytes of every block operator new handed out and operator
/// delete has not yet taken back.
std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t usable_bytes(void* block) {
  return static_cast<std::int64_t>(malloc_usable_size(block));
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes.fetch_add(usable_bytes(block), std::memory_order_relaxed);
    return block;
  }
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept {
  if (block == nullptr) return;
  g_live_bytes.fetch_sub(usable_bytes(block), std::memory_order_relaxed);
  std::free(block);
}

void operator delete(void* block, std::size_t) noexcept {
  operator delete(block);
}

namespace fnda {
namespace {

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

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
  // Per-shard cost: three extra shard worlds, none carrying a buffer
  // for cross-shard traffic.
  EXPECT_LT(four - one, kOneMiB / 2);
}

/// The ZI session run_throughput_session drives at its defaults (10k
/// traders on 4 shards at 1 thread), run for 26 rounds.
constexpr std::size_t kRounds = 26;

std::unique_ptr<MultiServerExchange> zi_exchange(
    const DoubleAuctionProtocol& protocol) {
  const ThroughputConfig zi;
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
  return std::make_unique<MultiServerExchange>(protocol, config);
}

TEST(ExchangeFootprintTest, TraderPopulationAllocatesPerShardNotPerTrader) {
  const ThroughputConfig zi;
  const TpdProtocol tpd(Money::from_units(50));
  const std::unique_ptr<MultiServerExchange> exchange = zi_exchange(tpd);

  std::size_t before = g_allocations.load();
  exchange->add_zi_traders(zi.clients, zi.value_low, zi.value_high, kRounds);
  const std::size_t populate = g_allocations.load() - before;
  EXPECT_LE(populate, 15'000u)
      << "adding " << zi.clients << " traders allocated " << populate
      << " times";

  for (std::size_t round = 0; round < kRounds; ++round) {
    before = g_allocations.load();
    exchange->run_round(zi.open_for);
    const std::size_t allocations = g_allocations.load() - before;
    // Round 0 sizes every per-round buffer (book lanes, envelope slab,
    // round arenas) for the first time; later rounds reuse them.
    if (round == 0) continue;
    EXPECT_LE(allocations, 400u)
        << "round " << round << " allocated " << allocations << " times";
  }
}

TEST(ExchangeFootprintTest, SessionLiveHeapTracksLiveState) {
  const ThroughputConfig zi;
  const TpdProtocol tpd(Money::from_units(50));
  const std::int64_t before = g_live_bytes.load();
  const std::unique_ptr<MultiServerExchange> exchange = zi_exchange(tpd);
  exchange->add_zi_traders(zi.clients, zi.value_low, zi.value_high, kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    exchange->run_round(zi.open_for);
  }
  // About 48 MiB is live here.  With doubling tables and a wheel whose
  // every slot kept its largest bucket, the same session held about 98.
  const std::int64_t live = g_live_bytes.load() - before;
  EXPECT_LT(live, 64 * kMiB) << "the session holds " << live / kMiB
                             << " MiB after " << kRounds << " rounds";
}

/// Records every delivered slot, in order, into storage reserved up
/// front so that recording allocates nothing.
class RecordingSink final : public EventQueue::DeliverySink {
 public:
  explicit RecordingSink(std::size_t capacity) { slots.reserve(capacity); }

  void deliver_run(SimTime, const EventQueue::Delivery* run,
                   std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) slots.push_back(run[i].slot);
  }

  std::vector<std::uint32_t> slots;
};

TEST(EventQueueFootprintTest, WarmWheelRevolutionAllocatesNothing) {
  // The queue's geometry: 256 us buckets on a 1024-slot wheel.
  constexpr std::int64_t kBucketMicros = 256;
  constexpr std::size_t kWheelBuckets = 1024;
  constexpr std::size_t kMaxBurst = 64;
  constexpr std::size_t kLead = 4;  // buckets between send and delivery
  RecordingSink sink(2 * kWheelBuckets * kMaxBurst);
  const std::int64_t live_before = g_live_bytes.load();
  EventQueue queue;
  queue.set_delivery_sink(&sink);

  // Each revolution sends a burst per bucket, due kLead buckets later,
  // runs the queue up to the end of the bucket, and drains at the end.
  // Burst sizes and offsets depend only on the step, so both revolutions
  // carry the same traffic.
  std::size_t allocations[2] = {0, 0};
  for (std::size_t revolution = 0; revolution < 2; ++revolution) {
    const std::size_t before = g_allocations.load();
    for (std::size_t step = 0; step < kWheelBuckets; ++step) {
      const std::size_t bucket = revolution * kWheelBuckets + step;
      const std::int64_t due =
          static_cast<std::int64_t>(bucket + kLead) * kBucketMicros;
      const std::size_t burst = 1 + step * 37 % kMaxBurst;
      for (std::size_t i = 0; i < burst; ++i) {
        const auto offset = static_cast<std::int64_t>(i * 13 % kBucketMicros);
        const auto slot = static_cast<std::uint32_t>(step * kMaxBurst + i);
        queue.schedule_delivery(SimTime{due + offset}, slot, slot % 7);
      }
      queue.run_until(SimTime{
          static_cast<std::int64_t>(bucket + 1) * kBucketMicros - 1});
    }
    queue.run();
    allocations[revolution] = g_allocations.load() - before;
  }
  EXPECT_GT(allocations[0], 0u);
  EXPECT_EQ(allocations[1], 0u)
      << "the warm revolution allocated " << allocations[1] << " times";
  // Buffers for the few buckets in flight at once, not for every slot
  // the wheel swept (about 1024 x 40 entries x 24 bytes).
  const std::int64_t held = g_live_bytes.load() - live_before;
  EXPECT_LT(held, 64 * 1024) << "the queue holds " << held << " bytes";

  // The second revolution delivers the same traffic in the same order.
  const auto half = static_cast<std::ptrdiff_t>(sink.slots.size() / 2);
  ASSERT_EQ(sink.slots.size() % 2, 0u);
  EXPECT_TRUE(std::equal(sink.slots.begin(), sink.slots.begin() + half,
                         sink.slots.begin() + half, sink.slots.end()));
}

}  // namespace
}  // namespace fnda
