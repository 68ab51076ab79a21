// Live-exchange adversarial co-simulation bench: the live axis of
// bench/robustness_attacks (DESIGN.md §2j).  False-name attackers and
// honest ZI traders share a running MultiServerExchange; the attackers
// re-plan via warm-start find_best_deviation against the previous
// round's book on a background pool that overlaps the round's clearing.
// One run emits BOTH metric families in one JSON record:
//
//   mechanism level — planned manipulation gain, attack success rate
//   (profitable searches / searches), realized-vs-efficient surplus
//   ratio, warm-hit/seeded/cold split, shed + withdrawal counts;
//
//   systems level — p50/p99 round wall latency, summed search wall time,
//   session ns/message, shed rate.
//
// Two hard gates:
//   --assert-warm-speedup X   summed per-search wall time of the cold
//                             session (warm off) over the warm session
//                             must be >= X (best-of---reps per arm);
//   --assert-ns-per-message N an attacker-free session of the same
//                             harness (the honest hot path) must clear
//                             bids at <= N ns/message.
//
// The exchange output digest is printed so a bench run can be checked
// against the pinned determinism goldens in attack_scheduler_test.
//
// Usage: robustness_live [--honest N] [--attackers A] [--rounds R]
//                        [--shards S] [--threads T] [--search-threads P]
//                        [--search-budget B] [--grid-points G]
//                        [--max-declarations D] [--seed S] [--reps N]
//                        [--warm 0|1] [--json PATH]
//                        [--assert-warm-speedup X]
//                        [--assert-ns-per-message NS]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "market/live_attack.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"

namespace {

using namespace fnda;

double percentile_ns(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t index = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return static_cast<double>(samples[index]);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--honest N] [--attackers A] [--rounds R] [--shards S]\n"
               "       [--threads T] [--search-threads P] [--search-budget B]\n"
               "       [--grid-points G] [--max-declarations D] [--seed S]\n"
               "       [--reps N] [--warm 0|1] [--protocol tpd|pmd]\n"
               "       [--json PATH] [--assert-warm-speedup X]\n"
               "       [--assert-ns-per-message NS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LiveAttackConfig config;
  config.honest = 200;
  config.attackers = 16;
  config.rounds = 6;
  config.shards = 2;
  config.threads = 1;
  config.search_threads = 1;
  std::size_t reps = 3;
  double assert_warm_speedup = -1.0;    // < 0 disables the gate
  double assert_ns_per_message = -1.0;  // < 0 disables the gate
  std::string json_path;
  std::string protocol_name = "tpd";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--honest" && (value = next())) {
      config.honest = std::stoull(value);
    } else if (arg == "--attackers" && (value = next())) {
      config.attackers = std::stoull(value);
    } else if (arg == "--rounds" && (value = next())) {
      config.rounds = std::max<std::size_t>(2, std::stoull(value));
    } else if (arg == "--shards" && (value = next())) {
      config.shards = std::max<std::size_t>(1, std::stoull(value));
    } else if (arg == "--threads" && (value = next())) {
      config.threads = std::stoull(value);
    } else if (arg == "--search-threads" && (value = next())) {
      config.search_threads = std::stoull(value);
    } else if (arg == "--search-budget" && (value = next())) {
      config.search_budget = std::stoull(value);
    } else if (arg == "--grid-points" && (value = next())) {
      config.grid_points = std::stoull(value);
    } else if (arg == "--max-declarations" && (value = next())) {
      config.max_declarations = std::stoull(value);
    } else if (arg == "--seed" && (value = next())) {
      config.seed = std::stoull(value);
    } else if (arg == "--warm" && (value = next())) {
      config.warm = std::stoull(value) != 0;
    } else if (arg == "--protocol" && (value = next())) {
      protocol_name = value;
    } else if (arg == "--reps" && (value = next())) {
      reps = std::max<std::size_t>(1, std::stoull(value));
    } else if (arg == "--json" && (value = next())) {
      json_path = value;
    } else if (arg == "--assert-warm-speedup" && (value = next())) {
      assert_warm_speedup = std::stod(value);
    } else if (arg == "--assert-ns-per-message" && (value = next())) {
      assert_ns_per_message = std::stod(value);
    } else {
      return usage(argv[0]);
    }
  }

  // TPD is the paper's false-name-proof protocol (attack success rate
  // should stay at zero); PMD is the manipulable baseline the gain
  // metrics light up on.
  const TpdProtocol tpd(Money::from_units(50));
  const PmdProtocol pmd;
  const DoubleAuctionProtocol* chosen = nullptr;
  if (protocol_name == "tpd") {
    chosen = &tpd;
  } else if (protocol_name == "pmd") {
    chosen = &pmd;
  } else {
    std::cerr << "unknown --protocol " << protocol_name
              << " (expected tpd or pmd)\n";
    return 2;
  }
  const DoubleAuctionProtocol& protocol = *chosen;
  std::vector<bench::JsonBenchRecord> records;
  const std::string size_suffix = "/" + protocol_name + "/" +
                                  std::to_string(config.honest) + "+" +
                                  std::to_string(config.attackers);

  // Headline co-simulation session (warm per --warm).  The exchange
  // output is deterministic, so one run defines every mechanism-level
  // number; best-of---reps only steadies the wall-clock fields.
  LiveAttackResult session = run_live_attack_session(protocol, config);
  for (std::size_t rep = 1; rep < reps; ++rep) {
    LiveAttackResult sample = run_live_attack_session(protocol, config);
    if (sample.total_wall_ns < session.total_wall_ns) {
      session = std::move(sample);
    }
  }

  const double searches =
      static_cast<double>(std::max<std::uint64_t>(session.attack.searches, 1));
  const double success_rate =
      static_cast<double>(session.profitable_searches) / searches;
  const double shed_rate =
      static_cast<double>(session.attack.shed) /
      static_cast<double>(std::max<std::uint64_t>(
          session.attack.searches + session.attack.shed, 1));
  const double round_p50 = percentile_ns(session.round_wall_ns, 0.50);
  const double round_p99 = percentile_ns(session.round_wall_ns, 0.99);
  const double session_ns_per_message =
      static_cast<double>(session.total_wall_ns) /
      static_cast<double>(std::max<std::size_t>(session.bus.sent, 1));

  records.push_back(
      {"live_attack/session" + size_suffix,
       static_cast<double>(session.total_wall_ns),
       1,
       static_cast<double>(session.bus.sent) /
           (static_cast<double>(session.total_wall_ns) / 1e9),
       {// mechanism level
        {"planned_gain_total", session.planned_gain_total},
        {"attack_success_rate", success_rate},
        {"efficiency_ratio", session.efficiency_ratio},
        {"searches", searches},
        {"warm_hits", static_cast<double>(session.attack.warm_hits)},
        {"warm_seeded", static_cast<double>(session.attack.warm_seeded)},
        {"cold_runs", static_cast<double>(session.attack.cold_runs)},
        {"withdrawals", static_cast<double>(session.attack.withdrawals)},
        // systems level
        {"round_p50_ns", round_p50},
        {"round_p99_ns", round_p99},
        {"search_wall_ns", static_cast<double>(session.search_wall_ns)},
        {"ns_per_message", session_ns_per_message},
        {"shed_rate", shed_rate},
        {"trades", static_cast<double>(session.trades)},
        {"messages", static_cast<double>(session.bus.sent)},
        {"shards", static_cast<double>(session.shards)},
        {"threads", static_cast<double>(session.threads)},
        {"search_threads", static_cast<double>(session.search_threads)},
        {"warm", config.warm ? 1.0 : 0.0}},
       {}});
  std::cout << "live session:     " << session.honest << " honest + "
            << session.attackers << " attackers, " << session.rounds
            << " rounds, " << session.trades << " trades, digest 0x"
            << std::hex << session.digest << std::dec << '\n'
            << "  mechanism:      planned gain " << session.planned_gain_total
            << ", success rate " << success_rate << ", efficiency "
            << session.efficiency_ratio << ", warm "
            << session.attack.warm_hits << " hit / "
            << session.attack.warm_seeded << " seeded / "
            << session.attack.cold_runs << " cold, withdrawals "
            << session.attack.withdrawals << '\n'
            << "  systems:        round p50 " << round_p50 / 1e6
            << " ms, p99 " << round_p99 / 1e6 << " ms, search wall "
            << static_cast<double>(session.search_wall_ns) / 1e6
            << " ms, shed rate " << shed_rate << ", "
            << session_ns_per_message << " ns/message\n";

  // Warm-start speedup: identical sessions, warm on vs off; compare the
  // SUMMED per-search wall time (the only field the toggle may change —
  // the exchange output is bit-identical, which the digest check below
  // enforces on every bench run).  Best (minimum) per arm across reps.
  {
    LiveAttackConfig warm_config = config;
    warm_config.warm = true;
    LiveAttackConfig cold_config = config;
    cold_config.warm = false;
    std::uint64_t warm_ns = 0;
    std::uint64_t cold_ns = 0;
    std::uint64_t warm_digest = 0;
    std::uint64_t cold_digest = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      // Interleave the arms so scheduler drift hits both equally.
      const LiveAttackResult warm =
          run_live_attack_session(protocol, warm_config);
      const LiveAttackResult cold =
          run_live_attack_session(protocol, cold_config);
      warm_ns = rep == 0 ? warm.search_wall_ns
                         : std::min(warm_ns, warm.search_wall_ns);
      cold_ns = rep == 0 ? cold.search_wall_ns
                         : std::min(cold_ns, cold.search_wall_ns);
      warm_digest = warm.digest;
      cold_digest = cold.digest;
    }
    if (warm_digest != cold_digest) {
      std::cerr << "FAIL: warm and cold sessions diverged (digest 0x"
                << std::hex << warm_digest << " vs 0x" << cold_digest
                << std::dec << "); warm-start is not output-preserving\n";
      return 1;
    }
    const double speedup = static_cast<double>(cold_ns) /
                           static_cast<double>(std::max<std::uint64_t>(
                               warm_ns, 1));
    records.push_back({"live_attack/warm_speedup" + size_suffix,
                       static_cast<double>(warm_ns),
                       1,
                       0.0,
                       {{"warm_search_ns", static_cast<double>(warm_ns)},
                        {"cold_search_ns", static_cast<double>(cold_ns)},
                        {"warm_speedup", speedup}},
                       {}});
    std::cout << "warm speedup:     cold "
              << static_cast<double>(cold_ns) / 1e6 << " ms vs warm "
              << static_cast<double>(warm_ns) / 1e6 << " ms -> x" << speedup
              << " (best of " << reps << ", bit-identical output)\n";
    if (assert_warm_speedup >= 0.0 && speedup < assert_warm_speedup) {
      std::cerr << "warm-start speedup x" << speedup
                << " is below the asserted bound of x" << assert_warm_speedup
                << '\n';
      return 1;
    }
  }

  // Honest hot path: the same harness with zero attackers — what the
  // co-simulation machinery must not tax when it is not exercised.
  {
    LiveAttackConfig honest_config = config;
    honest_config.attackers = 0;
    LiveAttackResult honest = run_live_attack_session(protocol, honest_config);
    for (std::size_t rep = 1; rep < reps; ++rep) {
      LiveAttackResult sample =
          run_live_attack_session(protocol, honest_config);
      if (sample.total_wall_ns < honest.total_wall_ns) {
        honest = std::move(sample);
      }
    }
    const double honest_ns_per_message =
        static_cast<double>(honest.total_wall_ns) /
        static_cast<double>(std::max<std::size_t>(honest.bus.sent, 1));
    records.push_back(
        {"live_attack/honest_ns_per_message" + size_suffix,
         honest_ns_per_message,
         honest.bus.sent,
         1e9 / std::max(honest_ns_per_message, 1e-9),
         {{"messages", static_cast<double>(honest.bus.sent)},
          {"trades", static_cast<double>(honest.trades)}},
         {}});
    std::cout << "honest hot path:  " << honest_ns_per_message
              << " ns/message (" << honest.bus.sent << " messages, best of "
              << reps << ")\n";
    if (assert_ns_per_message >= 0.0 &&
        honest_ns_per_message > assert_ns_per_message) {
      std::cerr << "honest hot path " << honest_ns_per_message
                << " ns/message exceeds the asserted bound of "
                << assert_ns_per_message << " ns\n";
      return 1;
    }
  }

  if (!json_path.empty()) {
    if (!bench::write_benchmark_json_file(json_path, argv[0], records)) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
