#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "protocols/tpd.h"
#include "sim/experiment.h"

namespace fnda {
namespace {

constexpr std::size_t kBlocks = 64;

/// Threads in this process (Linux), or 0 where /proc/self/task is absent.
std::size_t process_threads() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) return 0;
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

/// A joined thread can stay listed for a moment after join returns.
bool settles_at(std::size_t expected) {
  for (int i = 0; i < 1000; ++i) {
    if (process_threads() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Blocks 3 and 40 throw different messages.  Block 3 first sleeps, so on
/// a multi-lane pool block 40 usually throws first: the error must still
/// be block 3's.
void bomb(std::size_t block) {
  if (block == 3) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    throw std::runtime_error("block 3");
  }
  if (block == 40) throw std::runtime_error("block 40");
}

std::string message_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "(no throw)";
}

TEST(WorkerPoolTest, LowestThrowingBlockWinsAtEveryLaneCount) {
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    WorkerPool pool(lanes);
    for (int rep = 0; rep < 50; ++rep) {
      std::atomic<std::size_t> ran{0};
      const auto block = [&](std::size_t b, std::size_t) {
        ++ran;
        bomb(b);
      };
      EXPECT_EQ(message_of([&] { pool.run_blocks(kBlocks, block); }),
                "block 3")
          << "run_blocks lanes=" << lanes << " rep=" << rep;
      // Serial claiming stops at the first throw: no block past 3 ran.
      if (lanes == 1) {
        EXPECT_EQ(ran.load(), 4u);
      }
      EXPECT_EQ(message_of([&] {
                  pool.launch(kBlocks, block);
                  pool.wait();
                }),
                "block 3")
          << "launch lanes=" << lanes << " rep=" << rep;
    }
  }
}

TEST(WorkerPoolTest, ServesTheNextCallAfterAThrow) {
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    WorkerPool pool(lanes);
    EXPECT_THROW(
        pool.run_blocks(kBlocks, [](std::size_t b, std::size_t) { bomb(b); }),
        std::runtime_error);
    pool.wait();  // the error was consumed; nothing in flight

    std::vector<std::size_t> hits(kBlocks, 0);
    std::vector<std::size_t> worker_of(kBlocks, lanes);
    pool.run_blocks(kBlocks, [&](std::size_t b, std::size_t w) {
      ++hits[b];
      worker_of[b] = w;
    });
    for (std::size_t b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(hits[b], 1u) << "lanes=" << lanes << " block=" << b;
      EXPECT_LT(worker_of[b], lanes) << "lanes=" << lanes << " block=" << b;
    }

    pool.launch(kBlocks, [](std::size_t b, std::size_t) { bomb(b); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    std::atomic<std::size_t> launched{0};
    pool.launch(kBlocks, [&](std::size_t, std::size_t w) {
      // Launched blocks run on background workers unless there are none.
      EXPECT_EQ(w == 0, lanes == 1);
      ++launched;
    });
    EXPECT_THROW(pool.launch(1, [](std::size_t, std::size_t) {}),
                 std::logic_error);
    pool.wait();
    EXPECT_EQ(launched.load(), kBlocks);
  }
}

TEST(WorkerPoolTest, OneLanePoolStartsNoThread) {
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task";
  const std::thread::id caller = std::this_thread::get_id();
  {
    WorkerPool pool(1);
    std::size_t on_caller = 0;
    const auto block = [&](std::size_t, std::size_t w) {
      EXPECT_EQ(w, 0u);
      if (std::this_thread::get_id() == caller) ++on_caller;
    };
    pool.run_blocks(kBlocks, block);
    pool.launch(kBlocks, block);  // runs inline, before launch returns
    EXPECT_EQ(on_caller, 2 * kBlocks);
    pool.wait();
    EXPECT_EQ(process_threads(), before);
  }
  {
    // Workers start at first use, only as many as the call has blocks for,
    // and the destructor reaps them.
    WorkerPool pool(4);
    EXPECT_EQ(process_threads(), before);
    pool.run_blocks(2, [](std::size_t, std::size_t) {});
    EXPECT_EQ(process_threads(), before + 1);
    pool.run_blocks(kBlocks, [](std::size_t, std::size_t) {});
    EXPECT_EQ(process_threads(), before + 3);
  }
  EXPECT_TRUE(settles_at(before));
}

TEST(WorkerPoolTest, LanesAreBounded) {
  // A pool starts no thread until a call gives a lane a block, so these
  // only construct.
  EXPECT_EQ(kMaxThreads, 1024u);
  EXPECT_EQ(WorkerPool(kMaxThreads).lanes(), kMaxThreads);
  EXPECT_THROW(WorkerPool(1025), std::invalid_argument);
}

TEST(WorkerPoolTest, DestroyingWithALaunchInFlightDropsTheError) {
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  {
    WorkerPool pool(3);
    pool.launch(kBlocks, [&](std::size_t b, std::size_t) {
      ++started;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++finished;
      bomb(b);
    });
  }  // no wait(): the destructor finishes the claimed blocks and reaps
  EXPECT_GE(started.load(), 4u);  // block 3 always runs
  EXPECT_EQ(finished.load(), started.load());
}

// The Monte-Carlo runner on the pool: a generator that throws on some
// counter-derived draws and names the draw, so the rethrown message shows
// which instance failed.  It must be the same at every thread count.
TEST(WorkerPoolTest, ExperimentErrorIsTheSameAtEveryThreadCount) {
  const TpdProtocol tpd(money(50));
  const InstanceGenerator bomb(
      [](Rng& rng, SingleUnitInstance& instance) {
        const std::uint64_t draw = rng();
        if (draw % 40 == 0) {
          throw std::runtime_error("boom at draw " + std::to_string(draw));
        }
        instance.buyer_values = {money(9)};
        instance.seller_values = {money(2)};
      });
  ExperimentConfig config;
  config.instances = 200;
  const std::string serial = message_of(
      [&] { run_comparison_parallel(bomb, {&tpd}, config, 1); });
  EXPECT_NE(serial, "(no throw)");
  for (const std::size_t threads : {2u, 8u}) {
    for (int rep = 0; rep < 10; ++rep) {
      EXPECT_EQ(message_of([&] {
                  run_comparison_parallel(bomb, {&tpd}, config, threads);
                }),
                serial)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fnda
