// Deviation evaluation for the multi-unit TPD protocol (Section 9).
//
// The interesting deviations in the multi-unit setting are *schedule
// manipulations*: shading/inflating marginal values, withholding units,
// and — the false-name move — splitting one account's schedule across
// several pseudonymous identities.  Section 9 claims the GVA-style
// payments make all of these useless while marginal utilities decrease;
// `check_multi_unit_robustness` verifies that empirically and the tests
// pin the Example 5 cases.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mechanism/manipulation.h"  // SearchStats
#include "mechanism/utility.h"
#include "protocols/tpd_multi.h"

namespace fnda {

/// True multi-unit valuations of every participant.  Schedules are
/// non-increasing marginal values (the Section 9 assumption).
struct MultiUnitInstance {
  std::vector<std::vector<Money>> buyer_schedules;
  std::vector<std::vector<Money>> seller_schedules;
};

struct MultiManipulatorSpec {
  Side role;
  std::size_t index;
};

/// One declared schedule under one (possibly fictitious) identity.
struct MultiDeclaration {
  Side side;
  std::vector<Money> schedule;  // non-increasing
};

/// The manipulator's full action: any number of declarations.
struct MultiStrategy {
  std::vector<MultiDeclaration> declarations;

  static MultiStrategy truthful(Side role, std::vector<Money> schedule) {
    return MultiStrategy{{MultiDeclaration{role, std::move(schedule)}}};
  }
};

/// Evaluates multi-unit strategies for one (instance, manipulator) pair
/// under the multi-unit TPD protocol.
///
/// Thread-safety: `evaluate` is const AND stateless — it builds its book
/// and rng locally per call — so one evaluator can be shared read-only by
/// any number of search workers (unlike the single-unit
/// DeviationEvaluator, whose merge scratch makes concurrent evaluate
/// calls a race).
class MultiDeviationEvaluator {
 public:
  MultiDeviationEvaluator(const TpdMultiUnitProtocol& protocol,
                          MultiUnitInstance instance,
                          MultiManipulatorSpec manipulator,
                          UtilityModel penalty_model = UtilityModel{},
                          std::uint64_t seed = 0x3117);

  /// Utility of the manipulator playing `strategy`, everyone else
  /// truthful.  Quasi-linear over the true schedule: a buyer obtaining k
  /// units gains its k highest marginals; a seller delivering k units
  /// loses its k lowest.  Sales beyond the endowment are failed
  /// deliveries and incur the penalty model's fine.
  double evaluate(const MultiStrategy& strategy) const;

  double truthful_utility() const;

  const std::vector<Money>& true_schedule() const { return true_schedule_; }
  Side role() const { return manipulator_.role; }

 private:
  const TpdMultiUnitProtocol& protocol_;
  MultiUnitInstance instance_;
  MultiManipulatorSpec manipulator_;
  UtilityModel penalty_model_;
  std::uint64_t seed_;
  std::vector<Money> true_schedule_;
};

/// Search parameters for find_best_multi_deviation.
struct MultiSearchConfig {
  /// Per-identity scaling factors applied to each split half (clamped to
  /// keep schedules non-increasing and non-negative).
  std::vector<double> shade_factors = {0.5, 0.75, 0.9, 1.0, 1.1, 1.5};
  /// Lanes of the call-local WorkerPool over the split-mask space (0 =
  /// hardware concurrency; 1 runs inline).  Results are bit-identical for
  /// every thread count: masks are partitioned into deterministic
  /// contiguous ranges and merged in range order with a strictly-greater
  /// test, and `evaluate` is a pure function of the strategy.  If
  /// `evaluate` throws, the lowest throwing range's exception is rethrown,
  /// whatever the thread count.  No pruning here — GVA payments depend on
  /// whole-book reallocations, so no cheap sound price bracket exists.
  std::size_t threads = 1;
};

/// Best deviation found over the schedule-manipulation space: every
/// 2-identity split of the true schedule, each optionally scaled by the
/// configured shade factors, plus full withholding.
struct MultiSearchResult {
  double truthful_utility = 0.0;
  double best_utility = 0.0;
  MultiStrategy best_strategy;
  std::size_t strategies_evaluated = 0;
  /// Coverage/throughput counters (enumerated == evaluated: no pruning).
  SearchStats stats;

  bool profitable(double eps = 1e-9) const {
    return best_utility > truthful_utility + eps;
  }
};

MultiSearchResult find_best_multi_deviation(
    const MultiDeviationEvaluator& evaluator,
    const MultiSearchConfig& config = {});

}  // namespace fnda
