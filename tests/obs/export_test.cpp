// Exposition edge cases: label and JSON string escaping, empty registries,
// throwing gauge_fn callbacks, and histogram percentile exactness when
// samples sit on bucket upper bounds (the nearest-rank contract
// snapshot_quantile documents).
#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "snapshot_values.h"

namespace fnda::obs {
namespace {

TEST(PrometheusEscapeLabel, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_escape_label("two\nlines"), "two\\nlines");
  // Composition: every special byte escapes independently.
  EXPECT_EQ(prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(prometheus_escape_label(""), "");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndEveryControlByte) {
  const struct {
    std::string in;
    std::string out;
  } cases[] = {
      {"plain", "plain"},
      {"", ""},
      {"say \"hi\"", "say \\\"hi\\\""},
      {"a\\b", "a\\\\b"},
      {"two\nlines", "two\\nlines"},
      {"cr\r", "cr\\r"},
      {"tab\t", "tab\\t"},
      {"bs\b", "bs\\u0008"},
      {"ff\f", "ff\\u000c"},
      {std::string(1, '\x01'), "\\u0001"},
      {std::string(1, '\x1f'), "\\u001f"},
      {std::string("nul\0", 4), "nul\\u0000"},
      {"\x7f\xc3\xa9", "\x7f\xc3\xa9"},  // DEL and UTF-8 pass through
  };
  for (const auto& c : cases) {
    EXPECT_EQ(json_escape(c.in), c.out) << c.in;
  }
}

TEST(WritePrometheus, EmptyRegistryEmitsEmptyDocument) {
  MetricsRegistry registry;
  EXPECT_EQ(prometheus_text(registry.snapshot()), "");
  std::ostringstream json;
  write_json_snapshot(json, registry.snapshot());
  EXPECT_EQ(json.str(), "{\"metrics\":{}}\n");
}

TEST(WritePrometheus, EmptyHistogramStillEmitsSumCountAndInf) {
  MetricsRegistry registry;
  registry.histogram("h");
  const std::string text = prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("# TYPE h histogram"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 0"), std::string::npos);
  EXPECT_NE(text.find("h_sum 0"), std::string::npos);
  EXPECT_NE(text.find("h_count 0"), std::string::npos);
}

TEST(MetricsRegistry, ThrowingGaugeFnPropagatesFromSnapshot) {
  MetricsRegistry registry;
  registry.counter("before").add(1);
  registry.gauge_fn("exploding",
                    []() -> std::int64_t { throw std::runtime_error("boom"); });
  // The callback runs at snapshot time, so the failure surfaces there —
  // documented behavior: exposition is only as reliable as its callbacks.
  EXPECT_THROW(registry.snapshot(), std::runtime_error);
}

TEST(MetricsRegistry, ThrowingCounterFnPropagatesFromSnapshot) {
  MetricsRegistry registry;
  registry.counter_fn("exploding", []() -> std::uint64_t {
    throw std::logic_error("boom");
  });
  EXPECT_THROW(registry.snapshot(), std::logic_error);
}

TEST(SnapshotQuantile, ExactAtBucketUpperBounds) {
  // Values 0..7 are exact unit buckets; each is its own upper bound.
  const MetricValue value = histogram_metric(
      {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}});
  // Nearest rank over 8 samples: rank ceil(q*8) picks sample index
  // rank-1, and every sample sits on its bucket's upper bound, so the
  // readout is exact.
  EXPECT_EQ(snapshot_quantile(value, 0.125), 0u);  // rank 1 -> value 0
  EXPECT_EQ(snapshot_quantile(value, 0.5), 3u);    // rank 4 -> value 3
  EXPECT_EQ(snapshot_quantile(value, 0.625), 4u);  // rank 5 -> value 4
  EXPECT_EQ(snapshot_quantile(value, 0.99), 7u);   // rank 8 -> value 7
}

TEST(SnapshotQuantile, OctaveBucketBoundsReadBackExactly) {
  // 17 is a native upper bound in the msb-4 octave (buckets span two
  // values there: 16-17, 18-19, ...).  A sample recorded exactly at the
  // bound reads back exactly; one recorded at 16 rounds up to 17.
  EXPECT_EQ(snapshot_quantile(histogram_metric({{17, 1}}), 0.5), 17u);
  EXPECT_EQ(snapshot_quantile(histogram_metric({{16, 1}}), 0.5), 17u);
}

TEST(SnapshotQuantile, DegenerateInputs) {
  EXPECT_EQ(snapshot_quantile(histogram_metric({}), 0.5), 0u);
  EXPECT_EQ(snapshot_quantile(counter_metric(9), 0.5), 0u);

  const MetricValue one = histogram_metric({{100, 1}});
  // q >= 1 returns the true recorded max, not a bucket bound.
  EXPECT_EQ(snapshot_quantile(one, 1.0), 100u);
  EXPECT_EQ(snapshot_quantile(one, 2.0), 100u);
  // q <= 0 clamps to rank 1.
  EXPECT_EQ(snapshot_quantile(one, 0.0),
            Histogram::bucket_upper_bound(Histogram::bucket_index(100)));
}

}  // namespace
}  // namespace fnda::obs
