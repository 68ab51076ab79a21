// One pool of parked worker threads for block-parallel work.
//
// Everything that runs in parallel here splits into independent blocks
// whose results are merged in block order: the §7 Monte-Carlo runner,
// the deviation searches, the exchange's shard drive and the live attack
// planner.  A pool of `lanes` lanes runs blocks on the calling thread
// (worker 0) and on up to lanes − 1 background workers.  A worker starts
// the first time a call has a block for it, then parks on a condition
// variable between calls until the pool is destroyed, so a pool that is
// never used (or has one lane) starts no thread.  Blocks are claimed off
// one cursor in index order; the `worker_index` a block runs under picks
// the per-worker scratch.
//
// Errors are a function of the input alone: once a block throws, no
// further block is handed out, and the exception of the lowest throwing
// block is rethrown.  Every block below a claimed block was claimed
// before it, so that lowest block always runs, whatever the scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fnda {

/// Most lanes a pool may have, the calling thread's included.  Every
/// `--threads` option is bounded by it, and the constructor rejects
/// more, so no caller can ask the OS for thousands of threads by a typo.
/// A constant, so `fnda help` reads the same on every host.
inline constexpr std::size_t kMaxThreads = 1024;

/// Worker count for a requested thread count: 0 means the hardware
/// concurrency (at most kMaxThreads), and the result is at least 1.
std::size_t resolve_threads(std::size_t requested);

class WorkerPool {
 public:
  using BlockFn = std::function<void(std::size_t block, std::size_t worker)>;

  /// `lanes` (at least 1) counts the calling thread; no thread starts here.
  /// Throws std::invalid_argument above kMaxThreads.
  explicit WorkerPool(std::size_t lanes);
  /// Waits for launched blocks, dropping their error, and reaps the
  /// workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  /// Runs fn(block, worker_index) for every block in [0, n) and returns
  /// when all are done; the calling thread joins in as worker 0.  Rethrows
  /// the lowest throwing block's exception.  `fn` is borrowed, not copied.
  template <typename Fn>
  void run_blocks(std::size_t n, const Fn& fn) {
    check_idle();
    start(n, Job::of(fn), /*caller_joins=*/true);
    wait();
  }

  /// Runs the same blocks on the background workers only (worker indexes
  /// 1 .. lanes − 1) and returns at once; a 1-lane pool runs them inline
  /// before returning.  `wait` ends the call.
  void launch(std::size_t n, BlockFn fn);

  /// Blocks until the launched blocks are done, then rethrows the lowest
  /// throwing block's exception.  The pool serves the next call either
  /// way.  Idempotent.
  void wait();

 private:
  /// A borrowed callable: type-erased without copying or allocating.
  struct Job {
    const void* fn = nullptr;
    void (*call)(const void*, std::size_t, std::size_t) = nullptr;

    template <typename Fn>
    static Job of(const Fn& fn) {
      return {&fn, [](const void* f, std::size_t block, std::size_t worker) {
                (*static_cast<const Fn*>(f))(block, worker);
              }};
    }
  };

  void check_idle() const;
  void start(std::size_t n, Job job, bool caller_joins);
  void claim(std::size_t worker) noexcept;
  void park(std::size_t worker, std::uint64_t seen);

  const std::size_t lanes_;
  BlockFn launched_;  // owns what `launch` runs until the next call
  // The current call, published to the workers by the generation bump.
  Job job_;
  std::size_t blocks_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  bool inflight_ = false;  // touched only by the calling thread

  // Park/wake handshake and the first error, all guarded by `mutex_`.
  std::mutex mutex_;
  std::condition_variable wake_;  // start -> parked workers
  std::condition_variable idle_;  // last busy worker -> wait
  std::uint64_t generation_ = 0;  // calls that woke the workers
  std::size_t busy_ = 0;          // woken workers not yet parked again
  bool stopping_ = false;
  std::size_t error_block_ = 0;
  std::exception_ptr error_;

  std::vector<std::thread> threads_;  // worker w runs on threads_[w − 1]
};

}  // namespace fnda
