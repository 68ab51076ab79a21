// Experiment runner: the Monte-Carlo loop behind Tables 1-2 and Figure 1.
//
// For each generated instance, every registered protocol clears the same
// truthful book (common random numbers across protocols), the realised
// surplus is decomposed, and the Pareto-efficient surplus of the instance
// is recorded as the ratio denominator.
#pragma once

#include <string>
#include <vector>

#include "common/statistics.h"
#include "core/protocol.h"
#include "core/validation.h"
#include "sim/generators.h"

namespace fnda {

struct ExperimentConfig {
  std::size_t instances = 1000;
  std::uint64_t seed = 20010416;  // ICDCS-2001 vintage default
  /// Run validate_outcome on every clearing (cheap; on by default).
  bool validate = true;
  /// Relaxations for deliberately invariant-breaking protocols (VCG).
  ValidationOptions validation{};
  /// Sort-once fast path (default): each instance's book is ranked
  /// exactly once and that SortedBook is shared by the Pareto surplus
  /// computation and every protocol's `clear_sorted`, with per-protocol
  /// rng streams derived from the instance seed.  When false, the legacy
  /// path re-sorts per protocol from a common tie-break stream — kept so
  /// the paper-reproduction numbers can always be cross-checked against
  /// the original pipeline.  For the deterministic protocols (TPD, PMD,
  /// efficient, kDA, VCG) the two paths produce identical per-instance
  /// surpluses; they may differ in which same-valued bid fills (tie
  /// permutations only).
  bool shared_sort = true;
};

/// Aggregated results for one protocol across all instances.
struct ProtocolSummary {
  std::string name;
  RunningStats total;              ///< social surplus incl. auctioneer
  RunningStats except_auctioneer;  ///< surplus kept by traders
  RunningStats auctioneer;         ///< auctioneer revenue
  RunningStats trades;             ///< executed trade count
};

struct ComparisonResult {
  RunningStats pareto;        ///< efficient surplus per instance
  RunningStats pareto_trades; ///< efficient trade count per instance
  std::vector<ProtocolSummary> protocols;

  const ProtocolSummary& summary(const std::string& name) const;
  /// mean(total surplus) / mean(Pareto surplus) — the paper's
  /// parenthesised percentage, as a fraction.
  double ratio_total(const std::string& name) const;
  double ratio_except_auctioneer(const std::string& name) const;
};

/// Runs `config.instances` draws of `generator`, clearing each with every
/// protocol in `protocols` (non-owning pointers; all must outlive the call).
/// The instance stream is a function of `config.seed` alone and is
/// identical under both the shared-sort and legacy paths.
ComparisonResult run_comparison(
    const InstanceGenerator& generator,
    const std::vector<const DoubleAuctionProtocol*>& protocols,
    const ExperimentConfig& config = {});

/// Parallel variant.  Each instance's randomness is derived from
/// (config.seed, instance index) rather than one sequential stream, and
/// the instances are split into at most 64 fixed blocks whose
/// accumulators are merged in block order — so the result is
/// bit-identical for EVERY thread count (including 1), though it differs
/// from run_comparison's draw order.  The blocks run on a call-local
/// WorkerPool of `threads` lanes (0 = hardware concurrency; 1 runs
/// inline).  If instances throw (e.g. validation failures), the
/// lowest-index throwing instance's exception is rethrown on the calling
/// thread, whatever the thread count: blocks are contiguous index ranges
/// and the pool rethrows the lowest throwing block's.
ComparisonResult run_comparison_parallel(
    const InstanceGenerator& generator,
    const std::vector<const DoubleAuctionProtocol*>& protocols,
    const ExperimentConfig& config = {}, std::size_t threads = 0);

}  // namespace fnda
