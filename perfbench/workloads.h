// Pieces of the repository benchmark (perfbench/main.cpp) that its
// equivalence test also uses: spans, per-session counts, the phased ZI
// driver and the traced offline replica.
//
// They call the shipped libraries through public entry points only;
// timing and span recording happen around those calls.  The ZI driver
// splits `run_throughput_session` into its phases (build, populate,
// rounds, close) so set-up, steps and teardown can be timed apart;
// perfbench/equivalence_test.cpp proves it reproduces the session
// function exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "obs/metrics.h"
#include "sim/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Thrown by a correctness gate; main() turns it into a failed run.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void gate(bool ok, const std::string& what);

// ---------------------------------------------------------------------------
// Spans.  Recorded only in the traced run; every span wraps one call into
// a public function of the program (or a bench-side phase grouping such
// calls).  Raw spans are kept in memory up to a cap and written at exit;
// per-name totals and self times are always aggregated.

class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns = 0;
  };
  struct Totals {
    const char* name;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };

  int open(const char* name);
  void close(int index);
  /// A span measured by the program itself (e.g. LiveAttackResult's
  /// round_wall_ns), attached under the currently open span.
  void add_measured(const char* name, std::int64_t start_ns,
                    std::int64_t duration_ns);

  /// Per-name aggregates (zero Totals for a name never recorded).
  Totals totals(const std::string& name) const;
  double self_ms(const std::string& name) const { return totals(name).self_ms; }
  double total_ms(const std::string& name) const {
    return totals(name).total_ms;
  }
  std::size_t stored() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the stored spans as JSON lines (name, parent, start, end).
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxStored = 20'000;

  struct Open {
    const char* name;
    int stored_index;  // -1 when the span was not stored
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  /// Appends a stored span under the open one; -1 past the cap.
  int store(const char* name);
  void finish(const char* name, int stored_index, std::int64_t start_ns,
              std::int64_t end_ns, std::int64_t child_ns);

  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<Totals> totals_;  // few names: linear search is cheapest
  std::uint64_t dropped_ = 0;
};

class Scope {
 public:
  /// A null tracer (the untraced runs) records nothing.
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ---------------------------------------------------------------------------
// Deterministic per-session counts.  Equal for every session of one seed,
// for every thread count, and between the traced and untraced runs.

struct Counts {
  std::map<std::string, std::uint64_t> values;

  void set(const std::string& name, std::uint64_t value) {
    values[name] = value;
  }
  std::uint64_t get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
  bool operator==(const Counts&) const = default;
  /// First differing name, for gate messages ("" when equal).
  std::string first_difference(const Counts& other) const;
};

/// Failure accounting: attempted and failed operations by cause.
struct Failures {
  std::uint64_t attempted = 0;
  std::map<std::string, std::uint64_t> by_cause;
  std::uint64_t failed() const;
};

/// Latency percentiles of a wall-clock histogram from a metrics snapshot
/// (bucket upper bounds; 0 when the metric is absent or empty).
double histogram_quantile(const fnda::obs::MetricsSnapshot& snapshot,
                          const std::string& name, double q);
std::uint64_t counter_value(const fnda::obs::MetricsSnapshot& snapshot,
                            const std::string& name);

// ---------------------------------------------------------------------------
// ZI exchange sessions (zi_deep).

/// One ZI session, phase by phase: constructor = exchange construction +
/// population; step() = one round on every shard; close() = close_market
/// + merged snapshot; destroy() = exchange destruction.
class ZiSession {
 public:
  ZiSession(const fnda::DoubleAuctionProtocol& protocol,
            const fnda::ThroughputConfig& config, Tracer* tracer);

  /// open_rounds + drive_to_quiescence (== MultiServerExchange::run_round).
  std::vector<fnda::RoundId> step();
  /// Bench-side bookkeeping for the rounds `step` returned (untimed):
  /// trades, realized and efficient surplus, validation of the outcome.
  void tally(const std::vector<fnda::RoundId>& rounds);
  /// Correctness gates on the quiescent exchange.
  void check_invariants() const;
  /// Counts and failures of the whole session (before close()).
  Counts counts() const;
  Failures failures() const;
  void close();
  void destroy();

  fnda::MultiServerExchange& exchange() { return *exchange_; }
  std::uint64_t trades() const { return trades_; }
  std::int64_t realized_micros() const { return realized_micros_; }
  std::int64_t efficient_micros() const { return efficient_micros_; }
  const fnda::obs::MetricsSnapshot& final_snapshot() const {
    return snapshot_;
  }

 private:
  fnda::ThroughputConfig config_;
  Tracer* tracer_;
  std::unique_ptr<fnda::MultiServerExchange> exchange_;
  fnda::Money conserved_cash_{};
  std::size_t conserved_goods_ = 0;
  std::uint64_t trades_ = 0;
  std::int64_t realized_micros_ = 0;
  std::int64_t efficient_micros_ = 0;
  std::vector<std::int64_t> value_of_bid_;
  fnda::obs::MetricsSnapshot snapshot_;
};

/// The whole-session result the equivalence test compares against
/// run_throughput_session: same fields, produced by the phased driver.
fnda::ThroughputResult run_phased_zi(const fnda::DoubleAuctionProtocol& protocol,
                                     const fnda::ThroughputConfig& config);

// ---------------------------------------------------------------------------
// Offline §7 workload (paper_offline).

/// Traced replica of run_comparison (sequential runner) for one block:
/// the same draws and calls, each wrapped in a span.  Gated to equal
/// run_comparison bit for bit.
fnda::ComparisonResult traced_comparison(
    const fnda::InstanceGenerator& generator,
    const std::vector<const fnda::DoubleAuctionProtocol*>& protocols,
    const fnda::ExperimentConfig& config, Tracer& tracer,
    std::uint64_t& bids_ranked);

}  // namespace perfbench
