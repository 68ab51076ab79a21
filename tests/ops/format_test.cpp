// Console formatting helpers: the metrics table / histogram renderings
// are byte-stable functions of a snapshot, and parse_prometheus_text is a
// faithful inverse of obs::write_prometheus (modulo hist_max, which the
// exposition format cannot carry).
#include "ops/format.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "../obs/snapshot_values.h"

namespace fnda::ops {
namespace {

using obs::counter_metric;
using obs::gauge_metric;
using obs::histogram_metric;
using obs::snapshot_of;

obs::MetricsSnapshot sample_snapshot() {
  // Two samples at 3 and one at 900.
  return snapshot_of(
      {{"fnda_events_total", counter_metric(42)},
       {"fnda_depth", gauge_metric(-5)},
       {"fnda_latency_us", histogram_metric({{3, 2}, {900, 1}})}});
}

TEST(RenderMetricsTable, AlignsAndShowsEveryKind) {
  const std::vector<std::string> lines =
      render_metrics_table(sample_snapshot());
  ASSERT_EQ(lines.size(), 4u);  // header + 3 metrics
  EXPECT_NE(lines[0].find("name"), std::string::npos);
  EXPECT_NE(lines[1].find("fnda_depth"), std::string::npos);
  EXPECT_NE(lines[1].find("gauge"), std::string::npos);
  EXPECT_NE(lines[1].find("-5"), std::string::npos);
  EXPECT_NE(lines[2].find("counter    42"), std::string::npos);
  EXPECT_NE(lines[3].find("histogram  count=3"), std::string::npos);
  // Every row is aligned on the longest name.
  const std::size_t type_col = lines[0].find("type");
  EXPECT_NE(lines[1].find("gauge"), std::string::npos);
  EXPECT_EQ(lines[1].find("gauge"), type_col);
  EXPECT_EQ(lines[2].find("counter"), type_col);
}

TEST(RenderHistogram, QuantilesAndBuckets) {
  const obs::MetricsSnapshot snap = sample_snapshot();
  const obs::MetricValue* value = snap.find("fnda_latency_us");
  ASSERT_NE(value, nullptr);
  const std::vector<std::string> lines =
      render_histogram("fnda_latency_us", *value);
  EXPECT_EQ(lines[0], "fnda_latency_us:");
  EXPECT_EQ(lines[1], "  count 3");
  EXPECT_EQ(lines[2], "  sum   906");
  EXPECT_EQ(lines[3], "  mean  302");
  // Two samples at 3 (exact unit bucket), one at 900: p50 reads exactly 3.
  EXPECT_EQ(lines[4], "  p50   3");
  EXPECT_EQ(lines[8], "  max   900");
  // Bucket rows list the non-empty buckets with their upper bounds.
  EXPECT_NE(lines.back().find("le "), std::string::npos);
}

TEST(ParsePrometheus, RoundTripsWriterOutput) {
  const obs::MetricsSnapshot original = sample_snapshot();
  std::istringstream in(obs::prometheus_text(original));
  const obs::MetricsSnapshot parsed = parse_prometheus_text(in);

  ASSERT_EQ(parsed.metrics.size(), original.metrics.size());
  const obs::MetricValue* counter = parsed.find("fnda_events_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->counter, 42u);
  const obs::MetricValue* gauge = parsed.find("fnda_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge, -5);
  const obs::MetricValue* hist = parsed.find("fnda_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist_count, 3u);
  EXPECT_EQ(hist->hist_sum, 906u);
  EXPECT_EQ(hist->buckets, original.find("fnda_latency_us")->buckets);
  // hist_max is not representable in the exposition format.
  EXPECT_EQ(hist->hist_max, 0u);

  // Re-serializing the parsed snapshot reproduces the document except the
  // +Inf-adjacent max, which reads back as 0 — scrub and compare.
  const std::string again = obs::prometheus_text(parsed);
  std::istringstream twice_in(again);
  const obs::MetricsSnapshot twice = parse_prometheus_text(twice_in);
  EXPECT_EQ(obs::prometheus_text(twice), again);
}

TEST(ParsePrometheus, MalformedInputsCarryLineNumbers) {
  const auto expect_error = [](const std::string& document,
                               const std::string& needle) {
    std::istringstream in(document);
    try {
      parse_prometheus_text(in);
      FAIL() << "expected parse failure for: " << document;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };

  expect_error("garbage{\n", "line 1");
  expect_error("# TYPE x widget\n", "unknown metric type");
  expect_error("# TYPE x counter\n# TYPE x counter\n", "duplicate TYPE");
  expect_error("x 1\n", "undeclared metric");
  expect_error("# TYPE x counter\nx notanumber\n", "bad counter value");
  expect_error(
      "# TYPE h histogram\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"7\"} 1\n"
      "h_sum 6\nh_count 3\n",
      "cumulative");
  // 16 sits inside the msb-4 octave whose buckets span two values (native
  // bounds there are 17, 19, ...), so it cannot be a bucket upper bound.
  expect_error(
      "# TYPE h histogram\nh_bucket{le=\"16\"} 1\nh_sum 6\nh_count 1\n",
      "not a native bucket bound");
  expect_error("# TYPE h histogram\nh_sum 6\n", "no _count sample");
  expect_error(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 6\nh_count 3\n",
      "+Inf bucket disagrees");
  expect_error("# TYPE h histogram\nh 4\n", "bare sample for histogram");
  expect_error("# TYPE x counter\nx{le=\"3\" 1\n", "unterminated label");
}

TEST(ParsePrometheus, EmptyDocumentYieldsEmptySnapshot) {
  std::istringstream in("");
  const obs::MetricsSnapshot snap = parse_prometheus_text(in);
  EXPECT_TRUE(snap.metrics.empty());
}

}  // namespace
}  // namespace fnda::ops
