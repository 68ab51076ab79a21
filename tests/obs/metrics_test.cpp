// Registry semantics (find-or-create, kind mismatches, callback metrics)
// and the determinism contract: the merged session snapshot — and its
// Prometheus exposition byte stream — is identical for 1, 2, and 8 worker
// threads, pinned with a golden FNV-1a digest.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/fnv.h"
#include "market/throughput.h"
#include "mechanism/search_telemetry.h"
#include "obs/export.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"

namespace fnda::obs {
namespace {

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  counter.add(2);
  EXPECT_EQ(&registry.counter("c"), &counter);
  Histogram& hist = registry.histogram("h");
  EXPECT_EQ(&registry.histogram("h"), &hist);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("name");
  EXPECT_THROW(registry.gauge("name"), std::logic_error);
  EXPECT_THROW(registry.histogram("name"), std::logic_error);
  EXPECT_THROW(registry.counter_fn("name", [] { return 0ull; }),
               std::logic_error);
}

TEST(MetricsRegistry, CallbackMetricsReadAtSnapshotTime) {
  MetricsRegistry registry;
  std::uint64_t cell = 7;
  registry.counter_fn("external", [&cell] { return cell; });
  cell = 11;  // snapshot must see the value at snapshot time, not bind time
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.find("external"), nullptr);
  EXPECT_EQ(snap.find("external")->counter, 11u);
}

TEST(MetricsSnapshot, MergeSumsCountersAndRespectsGaugePolicy) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("c").add(3);
  b.counter("c").add(4);
  a.gauge("total", GaugeMerge::kSum).set(10);
  b.gauge("total", GaugeMerge::kSum).set(5);
  a.gauge("peak", GaugeMerge::kMax).set(10);
  b.gauge("peak", GaugeMerge::kMax).set(25);

  MetricsSnapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
#ifndef FNDA_NO_TELEMETRY
  EXPECT_EQ(merged.find("c")->counter, 7u);
  EXPECT_EQ(merged.find("total")->gauge, 15);
  EXPECT_EQ(merged.find("peak")->gauge, 25);
#else
  EXPECT_EQ(merged.find("c")->counter, 0u);
#endif
}

#ifndef FNDA_NO_TELEMETRY

TEST(MetricsSnapshot, MergeCombinesSparseHistogramBuckets) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.histogram("h").record(1);
  a.histogram("h").record(100);
  b.histogram("h").record(1);
  b.histogram("h").record(5000);

  MetricsSnapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
  const MetricValue* h = merged.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist_count, 4u);
  EXPECT_EQ(h->hist_sum, 5102u);
  EXPECT_EQ(h->hist_max, 5000u);
  ASSERT_EQ(h->buckets.size(), 3u);  // bucket(1) merged; 100 and 5000 distinct
  EXPECT_EQ(h->buckets[0].first, Histogram::bucket_index(1));
  EXPECT_EQ(h->buckets[0].second, 2u);
}

ThroughputConfig session_config(std::size_t threads) {
  ThroughputConfig config;
  config.clients = 240;
  config.rounds = 2;
  config.shards = 8;
  config.threads = threads;
  config.seed = 42;
  return config;
}

TEST(MetricsDeterminism, MergedSnapshotIsBitIdenticalAcrossThreadCounts) {
  const TpdProtocol tpd(Money::from_units(50));
  const std::string one =
      prometheus_text(run_throughput_session(tpd, session_config(1)).metrics);
  const std::string two =
      prometheus_text(run_throughput_session(tpd, session_config(2)).metrics);
  const std::string eight =
      prometheus_text(run_throughput_session(tpd, session_config(8)).metrics);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // Golden digest of the exposition byte stream (integer-only output, so
  // platform-stable).  An intentional metrics change re-pins this.
  EXPECT_EQ(fnv1a(one), 0xcc567449512f1076ull) << "exposition:\n" << one;
}

TEST(SearchMetricsDeterminism, ExpositionIsBitIdenticalAcrossThreadCounts) {
  // Run the manipulation-search engine at 1/2/8 threads over the same
  // instance and expose its counters: the exposition byte stream must be
  // identical (SearchStats' deterministic counters do not depend on the
  // interleaving; wall time is excluded by default).
  const TpdWithRebates rebates(money(50));
  SingleUnitInstance instance;
  instance.buyer_values = {money(90), money(70), money(55), money(30)};
  instance.seller_values = {money(20), money(40), money(60), money(80)};
  const DeviationEvaluator evaluator(rebates, instance, {Side::kBuyer, 1});

  auto exposition = [&](std::size_t threads) {
    SearchConfig config;
    config.threads = threads;
    const SearchResult result = find_best_deviation(evaluator, config);
    MetricsRegistry registry;
    bind_search_metrics(registry, result.stats);
    return prometheus_text(registry.snapshot());
  };
  const std::string one = exposition(1);
  EXPECT_EQ(one, exposition(2));
  EXPECT_EQ(one, exposition(8));
  // Golden digest: re-pin on intentional search-counter changes.
  // Re-pinned for fnda_search_pruned_by_warm_floor_total (warm-start
  // co-simulation engine).
  EXPECT_EQ(fnv1a(one), 0xe63c81d6e2786d9ull) << "exposition:\n" << one;
}

TEST(SearchMetricsDeterminism, WallTimeIsOptIn) {
  SearchStats stats;
  stats.wall_time_ns = 1234;
  MetricsRegistry without;
  bind_search_metrics(without, stats);
  EXPECT_EQ(without.snapshot().find("fnda_search_wall_time_ns_total"),
            nullptr);
  MetricsRegistry with;
  bind_search_metrics(with, stats, /*include_wall_time=*/true);
  const MetricsSnapshot snap = with.snapshot();
  ASSERT_NE(snap.find("fnda_search_wall_time_ns_total"), nullptr);
  EXPECT_EQ(snap.find("fnda_search_wall_time_ns_total")->counter, 1234u);
}

#endif  // FNDA_NO_TELEMETRY

}  // namespace
}  // namespace fnda::obs
