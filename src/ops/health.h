// SLO health watchdog over deterministic metrics snapshots.
//
// An operator declares rules in a one-line syntax and the watchdog
// evaluates them against each quiescent merged snapshot (the console runs
// it after every round).  Because snapshots are bit-identical for every
// worker count, breach counters are thread-count-invariant — a health
// regression reproduces exactly under any --threads, which is what makes
// the counters pinnable in golden tests.
//
// Rule syntax (one rule per line):
//
//   <name> max(<metric>) <= <int>            current value ceiling
//   <name> p50|p90|p95|p99|p999(<metric>) <= <int>
//                                            histogram quantile ceiling
//   <name> ratio(<metric>,<metric>) <= <float>
//                                            numerator/denominator ceiling
//
// `max` reads a counter's count, a gauge's value, or a histogram's max.
// A rule whose metric is absent from the snapshot evaluates to "not
// present" and never breaches (sessions differ in which subsystems they
// wire).  Rule names must be [a-z0-9_]+ — they become Prometheus metric
// name suffixes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace fnda::ops {

enum class SloKind { kValueMax, kQuantileMax, kRatioMax };

struct SloRule {
  std::string name;
  SloKind kind = SloKind::kValueMax;
  std::string metric;
  std::string denominator;  ///< kRatioMax only
  double quantile = 0.99;   ///< kQuantileMax only
  std::uint64_t threshold = 0;   ///< kValueMax / kQuantileMax
  double ratio_threshold = 0.0;  ///< kRatioMax

  /// Parses the one-line syntax above; returns false and fills `error` on
  /// anything malformed.
  static bool parse(std::string_view text, SloRule* out, std::string* error);
  /// Round-trips back to the declaration syntax (config show, docs).
  std::string to_string() const;
};

class HealthWatchdog {
 public:
  explicit HealthWatchdog(std::vector<SloRule> rules);

  /// The rules console sessions run by default, covering the tentpole
  /// SLOs: p99 delivery latency, attack-search shed rate, and the escrow
  /// held ceiling.
  static std::vector<SloRule> default_rules();

  /// Evaluates every rule against one snapshot, bumping breach counters.
  /// Returns the number of rules breached by this snapshot.
  std::size_t evaluate(const obs::MetricsSnapshot& snapshot);

  struct RuleState {
    SloRule rule;
    std::uint64_t breaches = 0;    ///< evaluations that breached
    bool last_present = false;     ///< metric existed in the last snapshot
    bool last_breached = false;
    /// Last observed value: integer domain for value/quantile rules; for
    /// ratio rules this is the ratio scaled by 1e6 (fixed-point, so the
    /// state stays integer and deterministic to render).
    std::uint64_t last_value = 0;
  };

  const std::vector<RuleState>& states() const { return states_; }
  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t total_breaches() const { return total_breaches_; }

  /// Exposes the watchdog through the standard exposition: counter_fns
  /// for evaluations, total breaches, and one per-rule breach counter
  /// (`fnda_health_breach_<rule>_total`).  The watchdog must outlive the
  /// registry's snapshots.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  std::vector<RuleState> states_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t total_breaches_ = 0;
};

}  // namespace fnda::ops
