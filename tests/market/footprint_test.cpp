// Heap footprint of the sharded exchange.
//
// This binary replaces global operator new with a byte, call and
// live-byte counter (which is why it is its own executable) and bounds
// six things:
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
//  - Attack planning.  A planning round whose searches all hit the warm
//    cache wakes the parked pool and reuses every buffer, so it
//    allocates nothing.  The counter is atomic, so it sees the pool's
//    worker threads too.
//  - Monte-Carlo scoring.  run_comparison draws each instance into one
//    worker's scratch, ranks it there without a sort buffer, checks every
//    outcome against lookups bound once per ranking and clears every
//    protocol into one reused outcome, so a warm call allocates the same
//    few times at 250 instances as at 1000.  A threshold-sweep book holds
//    its ranked lanes and prefix sums in one buffer, drawn from one reused
//    instance.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "market/attack_scheduler.h"
#include "market/clock.h"
#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "sim/experiment.h"
#include "sim/threshold_search.h"

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

// std::stable_sort's temporary buffer comes from the nothrow form.  It
// must reach the counting operator new too: left to a sanitizer's
// runtime, its block would be released by the replaced operator delete
// below through std::free, a mismatch AddressSanitizer aborts on.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* block) noexcept {
  if (block == nullptr) return;
  g_live_bytes.fetch_sub(usable_bytes(block), std::memory_order_relaxed);
  std::free(block);
}

void operator delete(void* block, std::size_t) noexcept {
  operator delete(block);
}

void operator delete(void* block, const std::nothrow_t&) noexcept {
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
/// traders on 4 shards at 1 thread), run for 26 rounds.  A lossy bus
/// drops `drop` of the messages, and a nonzero `retry_interval` arms a
/// retry timer for every bid submitted.
constexpr std::size_t kRounds = 26;

std::unique_ptr<MultiServerExchange> zi_exchange(
    const DoubleAuctionProtocol& protocol, double drop = 0.0,
    SimTime retry_interval = SimTime{0}) {
  const ThroughputConfig zi;
  MultiExchangeConfig config;
  config.shards = zi.shards;
  config.threads = zi.threads;
  config.bus.base_latency = zi.base_latency;
  config.bus.jitter = zi.jitter;
  config.bus.drop_probability = drop;
  config.client.retry_interval = retry_interval;
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
  // The second input loses 2% of messages and retries unacked bids every
  // 5 ms, so every submit also arms a retry timer.
  struct Input {
    double drop;
    SimTime retry_interval;
  };
  for (const Input input :
       {Input{0.0, SimTime{0}}, Input{0.02, SimTime::millis(5)}}) {
    SCOPED_TRACE("drop " + std::to_string(input.drop) + ", retry every " +
                 std::to_string(input.retry_interval.micros) + " us");
    const std::unique_ptr<MultiServerExchange> exchange =
        zi_exchange(tpd, input.drop, input.retry_interval);

    std::size_t before = g_allocations.load();
    exchange->add_zi_traders(zi.clients, zi.value_low, zi.value_high,
                             kRounds);
    const std::size_t populate = g_allocations.load() - before;
    EXPECT_LE(populate, 15'000u)
        << "adding " << zi.clients << " traders allocated " << populate
        << " times";

    for (std::size_t round = 0; round < kRounds; ++round) {
      before = g_allocations.load();
      exchange->run_round(zi.open_for);
      const std::size_t allocations = g_allocations.load() - before;
      // Round 0 sizes every per-round buffer (book lanes, envelope slab,
      // submitted tables, retry rows) for the first time; later rounds
      // reuse them.
      if (round == 0) continue;
      EXPECT_LE(allocations, 400u)
          << "round " << round << " allocated " << allocations << " times";
    }
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
  // About 44 MiB is live here.  With doubling tables and a wheel whose
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
  void fire(const Timer&) override {}

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

TEST(AttackSchedulerFootprintTest, WarmPlanningRoundAllocatesNothing) {
  // run_live_attack_session's default population: 200 honest traders and
  // 16 attackers on 2 shards, on a 2-worker search pool.
  constexpr std::size_t kHonest = 200;
  constexpr std::size_t kAttackers = 16;
  constexpr std::size_t kPlanRounds = 10;
  const TpdProtocol tpd(Money::from_units(50));
  MultiExchangeConfig config;
  config.shards = 2;
  config.server.domain = ValueDomain{Money::from_units(0), Money::from_units(100)};
  config.initial_cash = MultiServerExchange::zi_endowment(kPlanRounds + 1, 3);
  config.seed = 3;
  MultiServerExchange exchange(tpd, config);
  exchange.add_zi_traders(kHonest, 1, 100, kPlanRounds + 1);

  AttackSchedulerConfig sched;
  sched.search.max_declarations = 2;
  for (std::int64_t units = 0; units <= 100; units += 10) {
    sched.search.grid_override.push_back(Money::from_units(units));
  }
  sched.pool_threads = 2;
  AttackScheduler scheduler(exchange, sched);
  for (std::size_t i = 0; i < kAttackers; ++i) {
    const Side role = i % 2 == 0 ? Side::kBuyer : Side::kSeller;
    TradingClient& attacker = exchange.add_trader(
        role, Money::from_units(static_cast<std::int64_t>(5 + 6 * i)));
    if (role == Side::kSeller) {
      exchange.grant_goods(attacker.account(), kPlanRounds);
    }
    scheduler.add_attacker(attacker);
  }

  const SimTime open_for = SimTime::millis(100);
  std::size_t all_hit_rounds = 0;
  for (std::size_t round = 0; round <= kPlanRounds; ++round) {
    const std::vector<RoundId> rounds = exchange.open_rounds(open_for);
    std::vector<SimTime> bounds;
    for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
      bounds.push_back(*exchange.server(s).round_closes_at() -
                       SimTime{open_for.micros / 2});
    }
    exchange.drive_until(bounds);
    scheduler.join();
    scheduler.apply_and_submit();
    exchange.drive_to_quiescence();

    const std::uint64_t hits_before = scheduler.counters().warm_hits;
    const std::size_t before = g_allocations.load();
    scheduler.plan_from(rounds);
    scheduler.join();
    const std::size_t allocations = g_allocations.load() - before;
    // Round 0 misses everywhere, starts the pool and sizes every buffer.
    // From round 1 on a round of hits allocates nothing, also when it
    // holds an attacker's first hit after a miss.
    if (round == 0) continue;
    if (scheduler.counters().warm_hits - hits_before != kAttackers) continue;
    ++all_hit_rounds;
    EXPECT_EQ(allocations, 0u)
        << "round " << round << ": a planning round of " << kAttackers
        << " warm hits allocated " << allocations << " times";
  }
  EXPECT_GT(all_hit_rounds, 0u) << "no planning round hit for every attacker";
}

TEST(MonteCarloFootprintTest, WarmComparisonAllocatesFewTimesPerInstance) {
  // The paper's Table 1 shape: n = m = 50, TPD against PMD.
  const TpdProtocol tpd(Money::from_units(50));
  const PmdProtocol pmd;
  const std::vector<const DoubleAuctionProtocol*> protocols{&tpd, &pmd};
  const InstanceGenerator generator = fixed_count_generator(50, 50);
  ExperimentConfig config;
  config.instances = 250;
  run_comparison(generator, protocols, config);  // warm-up

  auto allocations_of_a_run = [&](std::size_t instances) {
    config.instances = instances;
    config.seed += 1;
    const std::size_t before = g_allocations.load();
    const ComparisonResult result =
        run_comparison(generator, protocols, config);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_EQ(result.pareto.count(), instances);
    return allocations;
  };
  const std::size_t short_run = allocations_of_a_run(250);
  const std::size_t long_run = allocations_of_a_run(1000);
  // A call sizes its result and one worker's scratch (the drawn instance,
  // the ranking, the validation lookups and the reused outcome) and then
  // scores every instance in them, so four times the instances cost not
  // one allocation more.  A value vector, an outcome or a sort buffer per
  // instance would cost hundreds here.
  EXPECT_EQ(long_run, short_run)
      << "1000 instances allocated " << long_run << " times, 250 allocated "
      << short_run;
  EXPECT_LE(short_run, 16u) << "a warm run_comparison allocated " << short_run
                            << " times";
}

TEST(MonteCarloFootprintTest, SweepBookAllocatesOneBufferBeyondItsDraw) {
  // paper_offline's Figure-1 sweep shape: n = m = 50 books.
  constexpr std::size_t kBooks = 1000;
  const InstanceGenerator generator = fixed_count_generator(50, 50);
  const std::size_t before = g_allocations.load();
  const std::vector<TpdSweepBook> books =
      prepare_tpd_sweep(generator, kBooks, 11);
  const std::size_t allocations = g_allocations.load() - before;
  ASSERT_EQ(books.size(), kBooks);
  // Per book: one lane buffer for the buyers, the sellers and the prefix
  // sums.  The books' vector and the one instance every book is drawn
  // into are the constant.  Drawing a fresh instance per book would make
  // it three per book, three lane vectors five.
  EXPECT_LE(allocations, kBooks + 8)
      << "prepare_tpd_sweep allocated "
      << static_cast<double>(allocations) / kBooks << " times per book";
}

}  // namespace
}  // namespace fnda
