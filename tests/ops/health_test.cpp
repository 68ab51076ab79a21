// SLO rule parsing, the integer fixed-point evaluation semantics, and the
// watchdog's breach accounting + metric binding.  Everything here is a
// pure function of a snapshot, so the assertions double as the
// determinism contract the console's thread-invariance test rides on.
#include "ops/health.h"

#include <gtest/gtest.h>

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

SloRule parse_ok(const std::string& text) {
  SloRule rule;
  std::string error;
  EXPECT_TRUE(SloRule::parse(text, &rule, &error)) << error;
  return rule;
}

TEST(SloRule, ParsesEveryKind) {
  const SloRule max_rule = parse_ok("escrow max(fnda_escrow_held_micros) <= 10");
  EXPECT_EQ(max_rule.kind, SloKind::kValueMax);
  EXPECT_EQ(max_rule.name, "escrow");
  EXPECT_EQ(max_rule.metric, "fnda_escrow_held_micros");
  EXPECT_EQ(max_rule.threshold, 10u);

  const SloRule q = parse_ok("lat p99(fnda_latency_us) <= 250000");
  EXPECT_EQ(q.kind, SloKind::kQuantileMax);
  EXPECT_DOUBLE_EQ(q.quantile, 0.99);

  const SloRule ratio = parse_ok("shed ratio(fnda_drops,fnda_sent) <= 0.01");
  EXPECT_EQ(ratio.kind, SloKind::kRatioMax);
  EXPECT_EQ(ratio.metric, "fnda_drops");
  EXPECT_EQ(ratio.denominator, "fnda_sent");
  EXPECT_DOUBLE_EQ(ratio.ratio_threshold, 0.01);
}

TEST(SloRule, RoundTripsThroughToString) {
  const char* kDeclarations[] = {
      "escrow max(fnda_escrow_held_micros) <= 10",
      "lat p999(fnda_latency_us) <= 7",
      "shed ratio(fnda_drops,fnda_sent) <= 0.010000",
  };
  for (const char* text : kDeclarations) {
    const SloRule rule = parse_ok(text);
    EXPECT_EQ(rule.to_string(), text);
    // to_string output reparses to the same rule.
    const SloRule again = parse_ok(rule.to_string());
    EXPECT_EQ(again.to_string(), rule.to_string());
  }
}

TEST(SloRule, RejectsMalformedDeclarations) {
  const auto rejects = [](const std::string& text, const std::string& needle) {
    SloRule rule;
    std::string error;
    EXPECT_FALSE(SloRule::parse(text, &rule, &error)) << text;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  rejects("BadName max(m) <= 1", "rule name");
  rejects("r frob(m) <= 1", "unknown rule kind");
  rejects("r max(m) >= 1", "expected '<='");
  rejects("r max(m) <= banana", "bad integer threshold");
  rejects("r ratio(m) <= 0.5", "two metrics");
  rejects("r ratio(m,n) <= x.y", "bad ratio threshold");
  rejects("r max(bad name) <= 1", "expected kind(metric)");
  rejects("r max(m) <= 1 trailing", "trailing input");
}

TEST(HealthWatchdog, ValueMaxReadsEveryMetricKind) {
  // Negative gauges clamp to 0 for ceilings.
  const obs::MetricsSnapshot snapshot =
      snapshot_of({{"c", counter_metric(7)},
                   {"g", gauge_metric(-3)},
                   {"h", histogram_metric({{40, 1}})}});

  HealthWatchdog watchdog({parse_ok("rc max(c) <= 5"),
                           parse_ok("rg max(g) <= 0"),
                           parse_ok("rh max(h) <= 39")});
  EXPECT_EQ(watchdog.evaluate(snapshot), 2u);  // c and h breach
  EXPECT_EQ(watchdog.states()[0].last_value, 7u);
  EXPECT_TRUE(watchdog.states()[0].last_breached);
  EXPECT_EQ(watchdog.states()[1].last_value, 0u);
  EXPECT_FALSE(watchdog.states()[1].last_breached);
  EXPECT_EQ(watchdog.states()[2].last_value, 40u);
  EXPECT_TRUE(watchdog.states()[2].last_breached);
}

TEST(HealthWatchdog, QuantileRuleUsesNearestRankBuckets) {
  const obs::MetricsSnapshot snapshot =
      snapshot_of({{"h", histogram_metric({{1, 99}, {1000, 1}})}});

  HealthWatchdog tight({parse_ok("r p99(h) <= 0")});
  EXPECT_EQ(tight.evaluate(snapshot), 1u);
  // rank ceil(0.99 * 100) = 99 lands in the bucket of the 1-valued
  // samples, so the observed p99 is exactly 1.
  EXPECT_EQ(tight.states()[0].last_value, 1u);

  HealthWatchdog loose({parse_ok("r p999(h) <= 2000")});
  EXPECT_EQ(loose.evaluate(snapshot), 0u);
}

TEST(HealthWatchdog, RatioIsIntegerFixedPoint) {
  const obs::MetricsSnapshot snapshot =
      snapshot_of({{"num", counter_metric(1)}, {"den", counter_metric(3)}});

  HealthWatchdog watchdog({parse_ok("r ratio(num,den) <= 0.4")});
  EXPECT_EQ(watchdog.evaluate(snapshot), 0u);
  // 1/3 in micros fixed-point: 333333, never a float on the path.
  EXPECT_EQ(watchdog.states()[0].last_value, 333333u);

  HealthWatchdog strict({parse_ok("r ratio(num,den) <= 0.333333")});
  EXPECT_EQ(strict.evaluate(snapshot), 0u);  // 333333 <= 333333
  HealthWatchdog stricter({parse_ok("r ratio(num,den) <= 0.333332")});
  EXPECT_EQ(stricter.evaluate(snapshot), 1u);
}

TEST(HealthWatchdog, AbsentMetricNeverBreaches) {
  const obs::MetricsSnapshot snapshot =
      snapshot_of({{"present", counter_metric(100)}});

  HealthWatchdog watchdog({parse_ok("r1 max(absent) <= 1"),
                           parse_ok("r2 ratio(present,also_absent) <= 0.1")});
  EXPECT_EQ(watchdog.evaluate(snapshot), 0u);
  EXPECT_FALSE(watchdog.states()[0].last_present);
  EXPECT_FALSE(watchdog.states()[1].last_present);
  EXPECT_EQ(watchdog.total_breaches(), 0u);
}

TEST(HealthWatchdog, BreachCountersAccumulateAcrossEvaluations) {
  const obs::MetricsSnapshot before = snapshot_of({{"c", counter_metric(0)}});
  const obs::MetricsSnapshot after = snapshot_of({{"c", counter_metric(5)}});

  HealthWatchdog watchdog({parse_ok("r max(c) <= 1")});
  EXPECT_EQ(watchdog.evaluate(before), 0u);
  EXPECT_EQ(watchdog.evaluate(after), 1u);
  EXPECT_EQ(watchdog.evaluate(after), 1u);
  EXPECT_EQ(watchdog.evaluations(), 3u);
  EXPECT_EQ(watchdog.total_breaches(), 2u);
  EXPECT_EQ(watchdog.states()[0].breaches, 2u);
}

TEST(HealthWatchdog, BindMetricsExposesCounters) {
  HealthWatchdog watchdog({parse_ok("r max(c) <= 0")});

  // The watchdog binds callback counters, which read its own state and
  // so stay live when the instruments are compiled out.
  obs::MetricsRegistry exposition;
  watchdog.bind_metrics(exposition);
  watchdog.evaluate(snapshot_of({{"c", counter_metric(1)}}));

  const obs::MetricsSnapshot snap = exposition.snapshot();
  ASSERT_NE(snap.find("fnda_health_evaluations_total"), nullptr);
  EXPECT_EQ(snap.find("fnda_health_evaluations_total")->counter, 1u);
  EXPECT_EQ(snap.find("fnda_health_breaches_total")->counter, 1u);
  ASSERT_NE(snap.find("fnda_health_breach_r_total"), nullptr);
  EXPECT_EQ(snap.find("fnda_health_breach_r_total")->counter, 1u);
  // The exposition writer renders the bound counters like any other.
  const std::string text = obs::prometheus_text(snap);
  EXPECT_NE(text.find("fnda_health_breach_r_total 1"), std::string::npos);
}

TEST(HealthWatchdog, DefaultRulesParseAndCoverTheTentpoleSlos) {
  const std::vector<SloRule> rules = HealthWatchdog::default_rules();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].name, "delivery_p99");
  EXPECT_EQ(rules[1].name, "attack_shed");
  EXPECT_EQ(rules[2].name, "escrow_held");
}

}  // namespace
}  // namespace fnda::ops
