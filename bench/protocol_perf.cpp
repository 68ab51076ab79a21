// Ablation C: clearing throughput microbenchmarks (google-benchmark).
//
// Clearing is O(n log n) in the book size for every protocol here; this
// bench pins that and surfaces the constant factors (TPD's rank counting
// vs PMD's k search vs the multi-unit GVA payments).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

#include "core/instance.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_multi.h"
#include "market/bus.h"
#include "market/zi_traders.h"
#include "sim/experiment.h"
#include "sim/generators.h"
#include "sim/threshold_search.h"

namespace {

using namespace fnda;

OrderBook make_book(std::size_t per_side, std::uint64_t seed) {
  Rng rng(seed);
  const SingleUnitInstance instance =
      fixed_count_generator(per_side, per_side)(rng);
  return instantiate_truthful(instance).book;
}

template <typename Protocol>
void clear_benchmark(benchmark::State& state, const Protocol& protocol) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  const OrderBook book = make_book(per_side, 42);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const Outcome outcome = protocol.clear(book, rng);
    benchmark::DoNotOptimize(outcome.trade_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * per_side));
}

void BM_TpdClear(benchmark::State& state) {
  clear_benchmark(state, TpdProtocol(money(50)));
}
void BM_PmdClear(benchmark::State& state) {
  clear_benchmark(state, PmdProtocol());
}
void BM_EfficientClear(benchmark::State& state) {
  clear_benchmark(state, EfficientClearing());
}
void BM_RandomThresholdClear(benchmark::State& state) {
  clear_benchmark(state, RandomThresholdProtocol(money(50)));
}

void BM_TpdMultiClear(benchmark::State& state) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  Rng build_rng(7);
  MultiUnitBook book;
  for (std::size_t p = 0; p < per_side; ++p) {
    auto draw = [&build_rng] {
      std::vector<Money> values;
      for (std::size_t u = 0, n = 1 + build_rng.below(4); u < n; ++u) {
        values.push_back(build_rng.uniform_money(Money::from_units(0),
                                                 Money::from_units(100)));
      }
      std::sort(values.begin(), values.end(),
                [](Money a, Money b) { return a > b; });
      return values;
    };
    book.add_buyer(IdentityId{p}, draw());
    book.add_seller(IdentityId{1'000'000 + p}, draw());
  }
  const TpdMultiUnitProtocol protocol(money(50));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const MultiUnitOutcome outcome = protocol.clear(book, rng);
    benchmark::DoNotOptimize(outcome.units_traded());
  }
}

/// The Table-1 inner loop: rank the book ONCE per instance (reusing the
/// scratch SortedBook's buffers) and hand the shared ranking to every
/// protocol's clear_sorted.  Items are protocol-clears x book size.
void BM_SharedSortClear(benchmark::State& state) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  const OrderBook book = make_book(per_side, 42);
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const EfficientClearing efficient;
  const KDoubleAuction kda(0.5);
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &efficient, &kda};
  SortedBook scratch;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng sort_rng(seed);
    scratch.rebuild(book, sort_rng);
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      Rng clear_rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
      const Outcome outcome = protocols[p]->clear_sorted(scratch, clear_rng);
      benchmark::DoNotOptimize(outcome.trade_count());
    }
    ++seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(protocols.size()) *
                          static_cast<std::int64_t>(2 * per_side));
}

/// Figure-1 coarse sweep: 21 TpdProtocol instances pushed through
/// run_comparison on the shared-sort path.  Items are
/// threshold-evaluations (21 x instances) in both Figure1Sweep benches.
void BM_Figure1SweepShared(benchmark::State& state) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kInstances = 200;
  std::vector<std::unique_ptr<TpdProtocol>> protocols;
  std::vector<const DoubleAuctionProtocol*> pointers;
  for (int r = 0; r <= 100; r += 5) {
    protocols.push_back(std::make_unique<TpdProtocol>(money(r)));
    pointers.push_back(protocols.back().get());
  }
  const InstanceGenerator gen = fixed_count_generator(per_side, per_side);
  ExperimentConfig config;
  config.instances = kInstances;
  config.seed = 31337;
  for (auto _ : state) {
    const ComparisonResult result = run_comparison(gen, pointers, config);
    benchmark::DoNotOptimize(result.pareto.mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pointers.size()) *
                          static_cast<std::int64_t>(kInstances));
}

/// Figure-1 coarse sweep through the incremental kernel: each instance is
/// ranked and prefix-summed once, then every threshold costs two binary
/// searches (O(N(n log n + T log n)) total).
void BM_Figure1SweepKernel(benchmark::State& state) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kInstances = 200;
  std::vector<Money> thresholds;
  for (int r = 0; r <= 100; r += 5) thresholds.push_back(money(r));
  const InstanceGenerator gen = fixed_count_generator(per_side, per_side);
  for (auto _ : state) {
    const std::vector<TpdSweepBook> books =
        prepare_tpd_sweep(gen, kInstances, 31337);
    for (Money r : thresholds) {
      benchmark::DoNotOptimize(
          mean_tpd_objective(books, r, ThresholdObjective::kTotalSurplus));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(thresholds.size()) *
                          static_cast<std::int64_t>(kInstances));
}

void BM_SortedBookConstruction(benchmark::State& state) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  const OrderBook book = make_book(per_side, 43);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const SortedBook sorted(book, rng);
    benchmark::DoNotOptimize(sorted.efficient_trade_count());
  }
}

void BM_EventQueue(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    std::size_t fired = 0;
    for (std::size_t e = 0; e < events; ++e) {
      queue.schedule_at(SimTime{static_cast<std::int64_t>((e * 7919) % events)},
                        [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}

class CountingEndpoint final : public Endpoint {
 public:
  void on_message(const Envelope&) override { ++count; }
  std::size_t count = 0;
};

void BM_MessageBus(benchmark::State& state) {
  const auto messages = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    BusConfig config;
    config.jitter = SimTime{100};
    MessageBus bus(queue, config, Rng(1));
    CountingEndpoint sink;
    bus.attach("sink", sink);
    for (std::size_t m = 0; m < messages; ++m) {
      bus.send("src", "sink", RoundClosedMsg{});
    }
    queue.run();
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages));
}

void BM_CdaZiSession(benchmark::State& state) {
  const auto per_side = static_cast<std::size_t>(state.range(0));
  Rng build(9);
  const SingleUnitInstance instance =
      fixed_count_generator(per_side, per_side)(build);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const ZiSessionResult result = run_zi_session(instance, rng);
    benchmark::DoNotOptimize(result.trades);
  }
}

}  // namespace

BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);
BENCHMARK(BM_MessageBus)->Arg(1000)->Arg(100000);
BENCHMARK(BM_CdaZiSession)->Arg(10)->Arg(100);
BENCHMARK(BM_TpdClear)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_PmdClear)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_EfficientClear)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_RandomThresholdClear)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_TpdMultiClear)->Arg(10)->Arg(100)->Arg(500);
BENCHMARK(BM_SortedBookConstruction)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SharedSortClear)->Arg(1000)->Arg(4000);
BENCHMARK(BM_Figure1SweepShared)->Arg(100)->Arg(500)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Figure1SweepKernel)->Arg(100)->Arg(500)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Same provenance keys as the JsonBenchRecord writers, surfaced through
  // google-benchmark's context block (its records inherit the context).
  benchmark::AddCustomContext("git_sha", fnda::bench::build_git_sha());
  // google-benchmark emits its own "library_build_type" (the benchmark
  // library's flavour); prefix ours to keep the keys distinct.
  benchmark::AddCustomContext("fnda_build_type",
                              fnda::bench::library_build_type());
  benchmark::AddCustomContext("compiler", fnda::bench::compiler_version());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
