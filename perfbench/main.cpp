// fnda_perfbench: the repository benchmark.  One process runs one
// workload for a fixed number of seconds, checks the program's outputs,
// and prints one JSON result line (see perfbench/README.md).
//
//   fnda_perfbench --workload zi_deep|attack_live|paper_offline
//                  --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run: untraced reference sessions alternate with sessions that
// record wall-clock telemetry and bench-side spans, and it prints the
// per-layer metrics.  Exit 1 when a correctness gate fails, 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "market/live_attack.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "sim/generators.h"
#include "sim/threshold_search.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fnda;

// --- Workload shapes (fixed per workload; only the seed varies) -------------

constexpr std::int64_t kThreshold = 50;  // TPD r throughout

// zi_deep: ~2.5k bids per shard-round, so the per-message path dominates.
constexpr std::size_t kZiClients = 10'000;
constexpr std::size_t kZiShards = 4;
constexpr std::size_t kZiRounds = 25;  // timed steps per session (+ 1 warm-up)

struct AttackShape {
  std::size_t honest = 200;
  std::size_t attackers = 64;
  std::size_t shards = 2;
  std::size_t rounds = 1'000;
  std::size_t grid_points = 33;
  std::size_t max_declarations = 3;
};
constexpr AttackShape kAttack{};
// One population's efficiency spread by ~4% over seeds, so a run's
// sessions cycle through this many populations drawn from its seed and
// the reported efficiency is their mean.
constexpr std::size_t kAttackPopulations = 8;

struct OfflineShape {
  std::size_t traders = 50;         // n = m
  std::size_t pool = 24'000;        // prepared sweep books per session
  std::size_t block = 250;          // instances per step
};
constexpr OfflineShape kOffline{};
// EXPERIMENTS.md Table 1, n = m = 50: TPD 99.1%, PMD 99.9% of Pareto.
constexpr double kPaperTpdRatio = 0.991;
constexpr double kPaperPmdRatio = 0.999;
constexpr double kPaperRatioTolerance = 0.005;

// --- Options ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fnda_perfbench: " << why
            << "\nusage: fnda_perfbench --workload "
               "zi_deep|attack_live|paper_offline --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

// --- Statistics -----------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Host speed -------------------------------------------------------------------

/// A fixed calibration kernel run beside every timed window.  On a shared
/// VM the host shifts between speed levels up to 2x apart, for seconds to
/// minutes at a time, and the program and this kernel slow down together.
/// So each window is bracketed by two kernel passes and its wall time is
/// reported at reference speed: wall time x (kReferenceNs / mean of the
/// two passes) ^ kElasticity.  The kernel measures compute speed only: it
/// sorts a block of keys (branchy, L2-resident) and then runs eight
/// interleaved multiply chains (high instruction-level parallelism).  The host also
/// moves between states where compute runs ~30% faster while random
/// access to a 4 MiB table runs ~60% slower, and the steps of every
/// workload follow the compute speed; of the two halves, the sort tracks
/// the host's slow levels best and the chains its fast ones.  The kernel
/// allocates nothing, so a change to the program's allocator cannot move
/// it.
class HostSpeed {
 public:
  /// The kernel's median pass on the 4-vCPU VM the bounds were set on.
  /// Any constant would do: it only fixes the scale of reported times.
  static constexpr double kReferenceNs = 1.5e6;
  /// How strongly the workloads' times follow the kernel's.  Fitting log
  /// step time on log kernel time over sets of 5-10 runs gave 0.8-1.7 per
  /// workload; over 70 runs, 1.4 left the smallest spread over seeds of
  /// every timing of every workload.
  static constexpr double kElasticity = 1.4;

  HostSpeed() : keys_(kKeys) {}

  /// Runs the kernel once; its wall time in nanoseconds.
  std::int64_t pass() {
    const std::int64_t start = now_ns();
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    for (std::uint64_t& key : keys_) {  // xorshift64
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      key = state;
    }
    std::sort(keys_.begin(), keys_.end());
    std::uint64_t chains[8];
    for (std::size_t c = 0; c < 8; ++c) chains[c] = keys_[c * (kKeys / 8)];
    for (std::size_t i = 0; i < kChainSteps; ++i) {
      for (std::size_t c = 0; c < 8; ++c) {
        chains[c] =
            chains[c] * 6364136223846793005ULL + (chains[(c + 1) % 8] >> 29);
      }
    }
    for (const std::uint64_t chain : chains) checksum_ += chain;
    return now_ns() - start;
  }

  /// Reference-speed factor for a window bracketed by passes `before`
  /// and `after`.
  static double scale(std::int64_t before, std::int64_t after) {
    return std::pow(2.0 * kReferenceNs / static_cast<double>(before + after),
                    kElasticity);
  }

  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kKeys = 8'192;
  static constexpr std::size_t kChainSteps = 200'000;

  std::vector<std::uint64_t> keys_;
  std::uint64_t checksum_ = 0;
};

// --- One run's measurements -------------------------------------------------------

/// Times are at reference host speed (see HostSpeed) unless named raw.
struct RunData {
  HostSpeed speed;
  std::size_t sessions = 0;
  std::vector<double> setup_s;     // per session
  std::vector<double> teardown_s;  // per session
  std::vector<double> step_us;     // every timed step, pooled
  std::vector<double> raw_step_us;
  std::vector<double> scales;      // HostSpeed::scale of every timed step
  std::vector<double> step_items;  // items each timed step finished
  /// Per input (attack_live cycles through several populations, the
  /// other workloads have one): the counts and efficiency of its first
  /// session, which every later session on that input must equal.
  std::vector<Counts> counts;
  std::vector<double> efficiency;
  Failures failures;               // summed over sessions
  /// Wall-clock histograms of the last session (traced run only).
  obs::MetricsSnapshot snapshot;
  /// Program-measured attack search time and its round-time base.
  double search_ms = 0.0;
  double round_ms = 0.0;
};

void add_step(RunData& run, std::int64_t wall_ns, double scale, double items) {
  const double us = static_cast<double>(wall_ns) / 1e3;
  run.raw_step_us.push_back(us);
  run.step_us.push_back(us * scale);
  run.scales.push_back(scale);
  run.step_items.push_back(items);
}

void add_failures(Failures& into, const Failures& from) {
  into.attempted += from.attempted;
  for (const auto& [cause, count] : from.by_cause) into.by_cause[cause] += count;
}

void expect_same_session(RunData& run, std::size_t input, const Counts& counts,
                         double efficiency) {
  if (input == run.counts.size()) {
    run.counts.push_back(counts);
    run.efficiency.push_back(efficiency);
    return;
  }
  const std::string diff = run.counts[input].first_difference(counts);
  gate(diff.empty(), "session " + std::to_string(run.sessions) +
                         " differs from the first on its input on " + diff);
  gate(efficiency == run.efficiency[input],
       "efficiency differs between sessions on one input");
}

/// Sessions run until the next one would pass the deadline (at least one).
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_ns_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool allows(std::int64_t last_duration_ns) const {
    return now_ns() + last_duration_ns <= end_ns_;
  }

 private:
  std::int64_t end_ns_;
};

// --- ZI exchange workloads -----------------------------------------------------------

Counts zi_session_counts(const ZiSession& session, const Counts& live) {
  Counts counts = live;
  const obs::MetricsSnapshot& snapshot = session.final_snapshot();
  for (const char* name :
       {"escrow.posted", "escrow.refunded", "escrow.seized",
        "settlement.delivered", "settlement.failed"}) {
    std::string metric = std::string("fnda_") + name + "_total";
    std::replace(metric.begin(), metric.end(), '.', '_');
    counts.set(name, counter_value(snapshot, metric));
  }
  counts.set("server.arena_high_water_bytes",
             counter_value(snapshot,
                           "fnda_server_round_arena_high_water_bytes"));
  return counts;
}

/// Runs zi_deep sessions until the deadline.  With a tracer, sessions
/// record spans and telemetry runs in wall-clock mode.
void run_zi_sessions(std::uint64_t seed, Tracer* tracer,
                     const Deadline& deadline, std::size_t max_sessions,
                     RunData& run) {
  const TpdProtocol tpd(Money::from_units(kThreshold));
  ThroughputConfig config;
  config.clients = kZiClients;
  config.shards = kZiShards;
  config.threads = 1;
  config.rounds = kZiRounds + 1;  // + the untimed warm-up round
  config.seed = seed;
  config.telemetry.wallclock = tracer != nullptr;
  std::int64_t last_ns = 0;
  while (run.sessions < max_sessions &&
         (run.sessions == 0 || deadline.allows(last_ns))) {
    std::int64_t pass = run.speed.pass();
    const std::int64_t session_start = now_ns();
    std::unique_ptr<ZiSession> session;
    {
      Scope span(tracer, "setup");
      session = std::make_unique<ZiSession>(tpd, config, tracer);
      Scope warmup(tracer, "step");
      session->step();
    }
    const std::int64_t setup_end = now_ns();
    std::int64_t next_pass = run.speed.pass();
    run.setup_s.push_back(seconds_between(session_start, setup_end) *
                          HostSpeed::scale(pass, next_pass));
    pass = next_pass;
    std::uint64_t sent = session->exchange().bus_stats().sent;
    for (std::size_t r = 0; r < kZiRounds; ++r) {
      std::vector<RoundId> rounds;
      const std::int64_t start = now_ns();
      {
        Scope span(tracer, "step");
        rounds = session->step();
      }
      const std::int64_t end = now_ns();
      next_pass = run.speed.pass();
      const std::uint64_t sent_now = session->exchange().bus_stats().sent;
      add_step(run, end - start, HostSpeed::scale(pass, next_pass),
               static_cast<double>(sent_now - sent));
      pass = next_pass;
      sent = sent_now;
      session->tally(rounds);
    }
    session->check_invariants();
    const Counts live = session->counts();
    const Failures failures = session->failures();
    pass = run.speed.pass();
    const std::int64_t teardown_start = now_ns();
    {
      Scope span(tracer, "teardown");
      session->close();
      session->destroy();
    }
    const std::int64_t teardown_end = now_ns();
    run.teardown_s.push_back(seconds_between(teardown_start, teardown_end) *
                             HostSpeed::scale(pass, run.speed.pass()));
    run.snapshot = session->final_snapshot();
    expect_same_session(run, 0, zi_session_counts(*session, live),
                        static_cast<double>(session->realized_micros()) /
                            static_cast<double>(session->efficient_micros()));
    add_failures(run.failures, failures);
    ++run.sessions;
    last_ns = now_ns() - session_start;
  }
}

// --- attack_live ---------------------------------------------------------------------

/// Pins the process to the CPU it runs on for one session, after
/// releasing an earlier pin so the scheduler can place it first.  The
/// attack scheduler starts a new search thread every round, and the
/// exchange thread joins it in the next round.  Unpinned, that thread
/// must wake a second vCPU, which a busy host delivers late: over 10
/// seeds in such a period the round p90 had an IQR/median of 0.63 and
/// items_per_s 0.30.  Pinned, both threads share one CPU, so a round's
/// time is its drive plus its search, without the shipped overlap.
/// Re-placing per session keeps one slow CPU from setting a whole run.
class SessionPin {
 public:
  SessionPin() { sched_getaffinity(0, sizeof allowed_, &allowed_); }
  ~SessionPin() { sched_setaffinity(0, sizeof allowed_, &allowed_); }
  SessionPin(const SessionPin&) = delete;
  SessionPin& operator=(const SessionPin&) = delete;

  void pin() {
    sched_setaffinity(0, sizeof allowed_, &allowed_);
    sched_yield();
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t allowed_{};
};

LiveAttackConfig attack_config(std::uint64_t seed, bool wallclock) {
  LiveAttackConfig config;
  config.honest = kAttack.honest;
  config.attackers = kAttack.attackers;
  config.rounds = kAttack.rounds;
  config.shards = kAttack.shards;
  config.threads = 1;
  config.search_threads = 1;
  config.warm = true;
  config.grid_points = kAttack.grid_points;
  config.max_declarations = kAttack.max_declarations;
  config.seed = seed;
  config.telemetry.wallclock = wallclock;
  return config;
}

/// Runs attack_live sessions until the deadline.  Set-up, steps and
/// teardown all happen inside the one public call, so they are read off
/// the program's own clocks: the rounds are `round_wall_ns`, set-up is
/// the rest of `total_wall_ns` (construction, population and scheduler
/// before the first round, plus the final tally after the last), and
/// teardown is the time from the end of `total_wall_ns` until the call
/// returns (scheduler and exchange destruction).
void run_attack_sessions(std::uint64_t seed, Tracer* tracer,
                         const Deadline& deadline, std::size_t max_sessions,
                         RunData& run) {
  const TpdProtocol tpd(Money::from_units(kThreshold));
  SessionPin pin;
  std::int64_t last_ns = 0;
  while (run.sessions < max_sessions &&
         (run.sessions == 0 || deadline.allows(last_ns))) {
    const std::size_t input = run.sessions % kAttackPopulations;
    const LiveAttackConfig config = attack_config(
        seed * kAttackPopulations + input, tracer != nullptr);
    pin.pin();
    const std::int64_t pass = run.speed.pass();
    LiveAttackResult result;
    const std::int64_t start = now_ns();
    {
      Scope span(tracer, "session");
      result = run_live_attack_session(tpd, config);
      // The program's own per-round timings are the session's steps.
      if (tracer != nullptr) {
        std::int64_t at = start;
        for (const std::uint64_t ns : result.round_wall_ns) {
          tracer->add_measured("attack.round", at,
                               static_cast<std::int64_t>(ns));
          at += static_cast<std::int64_t>(ns);
        }
      }
    }
    const std::int64_t end = now_ns();
    // One scale for the whole session: it is about a second long, shorter
    // than the host's speed levels last.
    const double scale = HostSpeed::scale(pass, run.speed.pass());
    std::int64_t rounds_ns = 0;
    for (const std::uint64_t ns : result.round_wall_ns) {
      // The session reports bus totals only, so its messages are
      // apportioned evenly over its rounds.
      add_step(run, static_cast<std::int64_t>(ns), scale,
               static_cast<double>(result.bus.sent) /
                   static_cast<double>(result.rounds));
      rounds_ns += static_cast<std::int64_t>(ns);
    }
    const auto total_ns = static_cast<std::int64_t>(result.total_wall_ns);
    run.setup_s.push_back(seconds_between(rounds_ns, total_ns) * scale);
    run.teardown_s.push_back(seconds_between(total_ns, end - start) * scale);

    gate(result.rounds == config.rounds, "live session skipped rounds");
    gate(result.planned_gain_total == 0.0,
         "planned attacker gain under TPD is not 0");
    const BusStats& bus = result.bus;
    gate(bus.sent + bus.duplicated ==
             bus.delivered + bus.dropped + bus.dead_lettered,
         "BusStats conservation: sent != delivered + dropped + dead_lettered "
         "- duplicated");
    gate(result.efficiency_ratio > 0.0, "live session cleared no surplus");

    Counts counts;
    counts.set("bus.sent", bus.sent);
    counts.set("bus.delivered", bus.delivered);
    counts.set("bus.duplicated", bus.duplicated);
    counts.set("bus.dropped", bus.dropped);
    counts.set("bus.dead_lettered", bus.dead_lettered);
    counts.set("bus.forwarded", bus.forwarded);
    counts.set("bus.mailbox_overflow", bus.mailbox_overflow);
    counts.set("epoch.epochs", result.epoch.epochs);
    counts.set("epoch.barriers", result.epoch.barriers);
    counts.set("epoch.widened", result.epoch.widened);
    counts.set("epoch.injected", result.epoch.injected);
    counts.set("attack.searches", result.attack.searches);
    counts.set("attack.warm_hits", result.attack.warm_hits);
    counts.set("attack.warm_seeded", result.attack.warm_seeded);
    counts.set("attack.cold_runs", result.attack.cold_runs);
    counts.set("attack.shed", result.attack.shed);
    counts.set("attack.profitable_searches", result.profitable_searches);
    counts.set("trades", result.trades);
    counts.set("bids.accepted", result.bids_accepted);
    counts.set("digest", result.digest);
    expect_same_session(run, input, counts, result.efficiency_ratio);

    // The operations are the planned attacker searches, run or shed.  A
    // message the bus lost also counts as a failed operation, so any loss
    // shows at full weight against that small base.
    Failures failures;
    failures.attempted = result.attack.searches + result.attack.shed;
    failures.by_cause["searches_shed"] = result.attack.shed;
    failures.by_cause["bus_dropped"] = bus.dropped;
    failures.by_cause["bus_dead_lettered"] = bus.dead_lettered;
    add_failures(run.failures, failures);

    run.snapshot = result.metrics;
    run.search_ms += static_cast<double>(result.search_wall_ns) / 1e6;
    run.round_ms += static_cast<double>(rounds_ns) / 1e6;
    ++run.sessions;
    last_ns = now_ns() - start;
  }
}

// --- paper_offline -------------------------------------------------------------------

void run_offline_sessions(std::uint64_t seed, Tracer* tracer,
                          const Deadline& deadline, std::size_t max_sessions,
                          RunData& run) {
  const TpdProtocol tpd(Money::from_units(kThreshold));
  const PmdProtocol pmd;
  const std::vector<const DoubleAuctionProtocol*> protocols{&tpd, &pmd};
  const InstanceGenerator generator =
      fixed_count_generator(kOffline.traders, kOffline.traders);
  const bool traced = tracer != nullptr;
  const std::size_t blocks = kOffline.pool / kOffline.block;
  std::int64_t last_ns = 0;
  while (run.sessions < max_sessions &&
         (run.sessions == 0 || deadline.allows(last_ns))) {
    const std::int64_t session_start = now_ns();
    std::int64_t pass = run.speed.pass();
    std::vector<TpdSweepBook> books;
    {
      Scope span(tracer, "sim.prepare");
      const std::int64_t start = now_ns();
      books = prepare_tpd_sweep(generator, kOffline.pool, seed);
      const std::int64_t end = now_ns();
      const std::int64_t next_pass = run.speed.pass();
      run.setup_s.push_back(seconds_between(start, end) *
                            HostSpeed::scale(pass, next_pass));
      pass = next_pass;
    }
    double pareto_sum = 0.0;
    double tpd_sum = 0.0;
    double pmd_sum = 0.0;
    double tpd_trades = 0.0;
    double pmd_trades = 0.0;
    std::uint64_t bids_ranked = 0;
    std::vector<double> curve(101, 0.0);
    for (std::size_t b = 0; b < blocks; ++b) {
      ExperimentConfig config;
      config.instances = kOffline.block;
      config.seed = seed * 1'000'003u + b;
      ComparisonResult comparison;
      const std::int64_t start = now_ns();
      {
        Scope span(tracer, "step");
        if (traced) {
          comparison =
              traced_comparison(generator, protocols, config, *tracer,
                                bids_ranked);
        } else {
          comparison = run_comparison(generator, protocols, config);
        }
        Scope sweep(tracer, "sim.sweep");
        const std::span<const TpdSweepBook> block(
            books.data() + b * kOffline.block, kOffline.block);
        for (std::size_t r = 0; r < curve.size(); ++r) {
          curve[r] += mean_tpd_objective(
              block, Money::from_units(static_cast<std::int64_t>(r)),
              ThresholdObjective::kTotalSurplus);
        }
      }
      const std::int64_t end = now_ns();
      const std::int64_t next_pass = run.speed.pass();
      add_step(run, end - start, HostSpeed::scale(pass, next_pass),
               static_cast<double>(kOffline.block));
      pass = next_pass;
      if (!traced) {
        bids_ranked += kOffline.block * 2 * kOffline.traders;
      } else if (run.sessions == 0 && b == 0) {
        const ComparisonResult shipped =
            run_comparison(generator, protocols, config);
        gate(shipped.pareto.mean() == comparison.pareto.mean() &&
                 shipped.summary("tpd").total.mean() ==
                     comparison.summary("tpd").total.mean() &&
                 shipped.summary("pmd").total.mean() ==
                     comparison.summary("pmd").total.mean(),
             "traced offline replica differs from run_comparison");
      }
      pareto_sum += comparison.pareto.mean();
      tpd_sum += comparison.summary("tpd").total.mean();
      pmd_sum += comparison.summary("pmd").total.mean();
      tpd_trades += comparison.summary("tpd").trades.mean() *
                    static_cast<double>(kOffline.block);
      pmd_trades += comparison.summary("pmd").trades.mean() *
                    static_cast<double>(kOffline.block);
    }
    {
      Scope span(tracer, "teardown");
      const std::int64_t start = now_ns();
      books = {};
      const std::int64_t end = now_ns();
      run.teardown_s.push_back(seconds_between(start, end) *
                               HostSpeed::scale(pass, run.speed.pass()));
    }

    const double tpd_ratio = tpd_sum / pareto_sum;
    const double pmd_ratio = pmd_sum / pareto_sum;
    gate(std::abs(tpd_ratio - kPaperTpdRatio) <= kPaperRatioTolerance,
         "TPD surplus ratio " + std::to_string(tpd_ratio) +
             " outside the EXPERIMENTS.md Table 1 row (0.991 +- 0.005)");
    gate(std::abs(pmd_ratio - kPaperPmdRatio) <= kPaperRatioTolerance,
         "PMD surplus ratio " + std::to_string(pmd_ratio) +
             " outside the EXPERIMENTS.md Table 1 row (0.999 +- 0.005)");
    const std::size_t best_r = static_cast<std::size_t>(
        std::max_element(curve.begin(), curve.end()) - curve.begin());
    gate(best_r >= 45 && best_r <= 55,
         "Figure-1 sweep peak at r = " + std::to_string(best_r) +
             ", expected near 50");

    Counts counts;
    counts.set("sim.instances", kOffline.pool + blocks * kOffline.block);
    counts.set("sim.bids_ranked", bids_ranked);
    counts.set("trades.tpd", static_cast<std::uint64_t>(std::llround(tpd_trades)));
    counts.set("trades.pmd", static_cast<std::uint64_t>(std::llround(pmd_trades)));
    counts.set("sweep.best_r", best_r);
    expect_same_session(run, 0, counts, tpd_ratio);

    Failures failures;
    // Every clearing is validated; a failure throws and fails the run.
    failures.attempted = blocks * kOffline.block * protocols.size();
    failures.by_cause["validation_failed"] = 0;
    add_failures(run.failures, failures);
    ++run.sessions;
    last_ns = now_ns() - session_start;
  }
}

// --- Dispatch and report ----------------------------------------------------------------

using SessionRunner = void (*)(std::uint64_t, Tracer*, const Deadline&,
                               std::size_t, RunData&);

SessionRunner runner_for(const std::string& workload) {
  if (workload == "zi_deep") return run_zi_sessions;
  if (workload == "attack_live") return run_attack_sessions;
  if (workload == "paper_offline") return run_offline_sessions;
  usage("unknown workload " + workload);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

void print_metrics_line(bool correct, const Failures& failures,
                        const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << failures.attempted
            << ", \"failed\": " << failures.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Items per second: the median over consecutive windows of timed steps,
/// each window at least kRateWindowUs long, of items finished / window
/// time (at reference speed, like every step time).  A median over many windows keeps a host stall in one of
/// them from moving the figure.
constexpr double kRateWindowUs = 20'000.0;

double windowed_rate(const RunData& run) {
  std::vector<double> rates;
  double items = 0.0;
  double us = 0.0;
  for (std::size_t i = 0; i < run.step_us.size(); ++i) {
    items += run.step_items[i];
    us += run.step_us[i];
    if (us >= kRateWindowUs) {
      rates.push_back(items / (us / 1e6));
      items = 0.0;
      us = 0.0;
    }
  }
  if (rates.empty() && us > 0.0) rates.push_back(items / (us / 1e6));
  return median(rates);
}

/// A step-time percentile: the median, over chunks of kChunkSteps
/// consecutive steps (the remainder joins the last chunk), of each
/// chunk's percentile.  Every chunk has at least 10 samples beyond its
/// 90th percentile, and a stall confined to a few chunks cannot move the
/// figure.
constexpr std::size_t kChunkSteps = 100;

double chunked_quantile(const std::vector<double>& steps, double q) {
  const std::size_t chunks = std::max<std::size_t>(steps.size() / kChunkSteps, 1);
  std::vector<double> values;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = steps.begin() + static_cast<std::ptrdiff_t>(c * kChunkSteps);
    const auto end = c + 1 == chunks
                         ? steps.end()
                         : begin + static_cast<std::ptrdiff_t>(kChunkSteps);
    values.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(values);
}

std::vector<Metric> end_to_end(const RunData& run) {
  const double failed = static_cast<double>(run.failures.failed());
  const double attempted = static_cast<double>(run.failures.attempted);
  return {
      {"items_per_s", windowed_rate(run), "1/s"},
      {"step_us_p50", chunked_quantile(run.step_us, 0.5), "us"},
      {"step_us_p90", chunked_quantile(run.step_us, 0.9), "us"},
      {"setup_s", median(run.setup_s), "s"},
      {"teardown_s", median(run.teardown_s), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"success_ratio", 1.0 - failed / attempted, "ratio"},
      {"efficiency_ratio", mean(run.efficiency), "ratio"},
  };
}

std::vector<Metric> per_layer(const std::string& workload, const RunData& ref,
                              const RunData& run, const Tracer& tracer) {
  const double sessions = static_cast<double>(std::max<std::size_t>(run.sessions, 1));
  auto per_session_ms = [&](const char* span) {
    return tracer.self_ms(span) / sessions;
  };
  auto count = [&](const char* name) {
    return static_cast<double>(run.counts.front().get(name));
  };
  const obs::MetricsSnapshot& snapshot = run.snapshot;
  const bool zi = workload == "zi_deep";
  const double delivered = count("bus.delivered");
  const double searches = count("attack.searches");
  const double warm_attempts = searches;  // every search consults the cache
  const std::string unattributed_span =
      workload == "attack_live" ? "session" : "step";
  const double unattributed =
      tracer.total_ms(unattributed_span) > 0.0
          ? 100.0 * tracer.self_ms(unattributed_span) /
                tracer.total_ms(unattributed_span)
          : 0.0;
  const double ref_step = quantile(ref.step_us, 0.5);
  const double overhead =
      ref_step > 0.0 ? 100.0 * (quantile(run.step_us, 0.5) / ref_step - 1.0)
                     : 0.0;
  return {
      {"exchange.construct_ms", per_session_ms("exchange.construct"), "ms"},
      {"exchange.populate_ms", per_session_ms("exchange.populate"), "ms"},
      {"exchange.close_ms", per_session_ms("exchange.close"), "ms"},
      {"exchange.destroy_ms", per_session_ms("exchange.destroy"), "ms"},
      {"epoch.open_ms", per_session_ms("epoch.open"), "ms"},
      {"epoch.drive_ms", per_session_ms("epoch.drive"), "ms"},
      {"epoch.epochs", count("epoch.epochs"), "count"},
      {"epoch.barriers", count("epoch.barriers"), "count"},
      {"epoch.widened", count("epoch.widened"), "count"},
      {"epoch.injected", count("epoch.injected"), "count"},
      {"epoch.barrier_stall_us_p50",
       histogram_quantile(snapshot, "fnda_epoch_barrier_stall_us", 0.5), "us"},
      {"epoch.barrier_stall_us_p99",
       histogram_quantile(snapshot, "fnda_epoch_barrier_stall_us", 0.99), "us"},
      {"epoch.shard_stall_us_p50",
       histogram_quantile(snapshot, "fnda_epoch_shard_stall_us", 0.5), "us"},
      {"bus.sent", count("bus.sent"), "count"},
      {"bus.delivered", delivered, "count"},
      {"bus.dropped", count("bus.dropped"), "count"},
      {"bus.dead_lettered", count("bus.dead_lettered"), "count"},
      {"bus.forwarded", count("bus.forwarded"), "count"},
      {"bus.mailbox_overflow", count("bus.mailbox_overflow"), "count"},
      {"bus.shard_skew",
       zi && delivered > 0.0
           ? count("bus.shard_max_delivered") / (delivered / static_cast<double>(kZiShards))
           : 0.0,
       "ratio"},
      {"bus.batch_size_p50",
       histogram_quantile(snapshot, "fnda_queue_batch_size", 0.5), "count"},
      {"bus.queue_depth_p50",
       histogram_quantile(snapshot, "fnda_queue_depth", 0.5), "count"},
      {"book.inserts", count("book.inserts"), "count"},
      {"book.entries_shifted", count("book.entries_shifted"), "count"},
      {"book.chunk_splits", count("book.chunk_splits"), "count"},
      {"book.tie_entries_permuted", count("book.tie_entries_permuted"),
       "count"},
      {"book.sorts_at_close", count("book.sorts_at_close"), "count"},
      {"server.arena_high_water_bytes",
       count("server.arena_high_water_bytes"), "bytes"},
      {"server.round_close_us_p50",
       histogram_quantile(snapshot, "fnda_server_round_close_us", 0.5), "us"},
      {"server.round_close_us_p99",
       histogram_quantile(snapshot, "fnda_server_round_close_us", 0.99), "us"},
      {"escrow.posted", count("escrow.posted"), "count"},
      {"escrow.refunded", count("escrow.refunded"), "count"},
      {"escrow.seized", count("escrow.seized"), "count"},
      {"settlement.delivered", count("settlement.delivered"), "count"},
      {"settlement.failed", count("settlement.failed"), "count"},
      {"audit.records", count("audit.records"), "count"},
      {"audit.detail_bytes", count("audit.detail_bytes"), "bytes"},
      {"attack.search_ms", run.search_ms / sessions, "ms"},
      {"attack.search_share", run.round_ms > 0.0 ? run.search_ms / run.round_ms : 0.0,
       "ratio"},
      {"attack.searches", searches, "count"},
      {"attack.warm_hits", count("attack.warm_hits"), "count"},
      {"attack.warm_seeded", count("attack.warm_seeded"), "count"},
      {"attack.cold_runs", count("attack.cold_runs"), "count"},
      {"attack.shed", count("attack.shed"), "count"},
      {"attack.warm_hit_ratio",
       warm_attempts > 0.0
           ? (count("attack.warm_hits") + count("attack.warm_seeded")) /
                 warm_attempts
           : 0.0,
       "ratio"},
      {"attack.search_latency_us_p50",
       histogram_quantile(snapshot, "fnda_attack_search_latency_us", 0.5),
       "us"},
      {"attack.search_latency_us_p99",
       histogram_quantile(snapshot, "fnda_attack_search_latency_us", 0.99),
       "us"},
      {"sim.prepare_ms", per_session_ms("sim.prepare"), "ms"},
      {"sim.generate_ms", per_session_ms("sim.generate"), "ms"},
      {"sim.score_ms", per_session_ms("sim.score"), "ms"},
      {"sim.sweep_ms", per_session_ms("sim.sweep"), "ms"},
      {"sim.instances", count("sim.instances"), "count"},
      {"sim.bids_ranked", count("sim.bids_ranked"), "count"},
      {"protocols.tpd.clear_ms", per_session_ms("protocols.tpd.clear"), "ms"},
      {"protocols.pmd.clear_ms", per_session_ms("protocols.pmd.clear"), "ms"},
      {"core.rank_ms", per_session_ms("core.rank"), "ms"},
      {"core.validate_ms", per_session_ms("core.validate"), "ms"},
      {"obs.snapshot_ms", per_session_ms("obs.snapshot"), "ms"},
      {"trace.overhead_pct", overhead, "%"},
      {"trace.unattributed_pct", unattributed, "%"},
  };
}

void print_detail_line(const Options& options, const RunData& run,
                       const Tracer& tracer) {
  std::cout << "{\"detail\": {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"git_sha\": \"" << fnda::bench::build_git_sha()
            << "\", \"build_type\": \"" << FNDA_BUILD_TYPE << " ("
            << fnda::bench::library_build_type() << ")\", \"compiler\": \""
            << fnda::bench::json_escape(fnda::bench::compiler_version())
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"sessions\": " << run.sessions
            << ", \"inputs\": " << run.counts.size()
            << ", \"step_samples\": " << run.step_us.size()
            << ", \"step_chunks\": "
            << std::max<std::size_t>(run.step_us.size() / kChunkSteps, 1)
            << ", \"setup_samples\": " << run.setup_s.size()
            << ", \"raw_step_us_p50\": "
            << json_number(chunked_quantile(run.raw_step_us, 0.5))
            << ", \"host_scale_p10\": " << json_number(quantile(run.scales, 0.1))
            << ", \"host_scale_p50\": " << json_number(quantile(run.scales, 0.5))
            << ", \"host_scale_p90\": " << json_number(quantile(run.scales, 0.9))
            << ", \"host_kernel_checksum\": " << run.speed.checksum()
            << ", \"attempted\": " << run.failures.attempted
            << ", \"failed\": " << run.failures.failed()
            << ", \"fail_ratio\": "
            << json_number(static_cast<double>(run.failures.failed()) /
                           static_cast<double>(run.failures.attempted))
            << ", \"failed_by_cause\": {";
  bool first = true;
  for (const auto& [cause, count] : run.failures.by_cause) {
    std::cout << (first ? "" : ", ") << '"' << cause << "\": " << count;
    first = false;
  }
  std::cout << "}, \"counts\": {";
  first = true;
  for (const auto& [name, value] : run.counts.front().values) {
    std::cout << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  std::cout << "}, \"spans_stored\": " << tracer.stored()
            << ", \"spans_dropped\": " << tracer.dropped() << "}}\n";
}

int run_main(const Options& options) {
  const SessionRunner runner = runner_for(options.workload);
  Tracer tracer;
  RunData ref;
  RunData run;
  Failures failures;
  try {
    const Deadline deadline(options.seconds);
    if (options.trace) {
      // Untraced reference sessions alternate with traced ones, so both
      // see the same cold start and host conditions.  Their counts must
      // be equal exactly; their step times are the base of
      // trace.overhead_pct.
      do {
        const std::size_t before = ref.sessions + run.sessions;
        runner(options.seed, nullptr, deadline, ref.sessions + 1, ref);
        runner(options.seed, &tracer, deadline, run.sessions + 1, run);
        if (ref.sessions + run.sessions == before) break;
      } while (deadline.allows(0));
      for (std::size_t input = 0;
           input < std::min(ref.counts.size(), run.counts.size()); ++input) {
        const std::string diff =
            ref.counts[input].first_difference(run.counts[input]);
        gate(diff.empty(), "traced counts differ from untraced on " + diff);
        gate(ref.efficiency[input] == run.efficiency[input],
             "traced efficiency differs from untraced");
      }
      if (!options.spans_out.empty()) {
        gate(tracer.write(options.spans_out),
             "cannot write spans to " + options.spans_out);
      }
    } else {
      runner(options.seed, nullptr, deadline, SIZE_MAX, run);
    }
  } catch (const GateFailure& failure) {
    std::cerr << "fnda_perfbench: correctness gate failed: " << failure.what()
              << '\n';
    print_metrics_line(false, run.failures, {});
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "fnda_perfbench: " << error.what() << '\n';
    print_metrics_line(false, run.failures, {});
    return 1;
  }
  print_detail_line(options, run, tracer);
  if (options.trace) {
    print_metrics_line(true, run.failures,
                       per_layer(options.workload, ref, run, tracer));
  } else {
    print_metrics_line(true, run.failures, end_to_end(run));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run_main(perfbench::parse(argc, argv));
}
