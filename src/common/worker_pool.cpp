#include "common/worker_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace fnda {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 kMaxThreads);
}

WorkerPool::WorkerPool(std::size_t lanes)
    : lanes_(std::max<std::size_t>(lanes, 1)) {
  if (lanes_ > kMaxThreads) {
    throw std::invalid_argument("WorkerPool: " + std::to_string(lanes_) +
                                " lanes exceed the bound of " +
                                std::to_string(kMaxThreads));
  }
}

WorkerPool::~WorkerPool() {
  try {
    wait();
  } catch (...) {
    // A launch's error surfaces at the explicit wait(); a pool torn down
    // with blocks in flight only needs them finished and the threads
    // reaped.
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::launch(std::size_t n, BlockFn fn) {
  check_idle();
  launched_ = std::move(fn);
  start(n, Job::of(launched_), /*caller_joins=*/false);
}

void WorkerPool::wait() {
  if (!inflight_) return;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return busy_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  inflight_ = false;
  if (error) std::rethrow_exception(error);
}

void WorkerPool::check_idle() const {
  if (inflight_) {
    throw std::logic_error("WorkerPool: wait() for the launched blocks first");
  }
}

void WorkerPool::start(std::size_t n, Job job, bool caller_joins) {
  job_ = job;
  blocks_ = n;
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  // Background workers this call can use: one per block the caller does
  // not take, up to lanes − 1.  New workers park at the current
  // generation, so the bump below is the one that wakes them.
  const std::size_t wanted =
      std::min(lanes_ - 1, caller_joins ? std::max<std::size_t>(n, 1) - 1 : n);
  while (threads_.size() < wanted) {
    const std::size_t worker = threads_.size() + 1;
    threads_.emplace_back(
        [this, worker, seen = generation_] { park(worker, seen); });
  }
  inflight_ = true;
  if (wanted == 0) {
    claim(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    busy_ = threads_.size();
    ++generation_;
  }
  wake_.notify_all();
  if (caller_joins) claim(0);
}

void WorkerPool::claim(std::size_t worker) noexcept {
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::size_t block = next_.fetch_add(1, std::memory_order_relaxed);
    if (block >= blocks_) return;
    try {
      job_.call(job_.fn, block, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr || block < error_block_) {
        error_ = std::current_exception();
        error_block_ = block;
      }
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void WorkerPool::park(std::size_t worker, std::uint64_t seen) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    claim(worker);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) idle_.notify_one();
  }
}

}  // namespace fnda
