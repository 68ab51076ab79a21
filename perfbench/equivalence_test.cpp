// Equivalence test for the benchmark's drivers: they must time the shipped
// program, not a fork of it.
//
//  1. The phased ZI driver (ZiSession: construct, populate, open_rounds +
//     drive_to_quiescence per round) reproduces run_throughput_session's
//     bids_accepted, trades, BusStats, LiveBookStats and EpochStats, for
//     the zi_deep shape and a 256-trader shape at 1 and 2 threads.
//  2. A 256-trader session's output at 2 threads equals its output at 1
//     thread.
//  3. The traced offline replica equals run_comparison bit for bit.
//
// Run with `python3 perfbench/run.py --self-test` (or ctest in the
// benchmark's build directory).  Exit 0 when every check holds.

#include <iostream>
#include <string>

#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "sim/generators.h"
#include "workloads.h"

namespace {

using namespace fnda;
using perfbench::Counts;
using perfbench::Tracer;
using perfbench::ZiSession;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool same_bus(const BusStats& a, const BusStats& b) {
  return a.sent == b.sent && a.delivered == b.delivered &&
         a.duplicated == b.duplicated && a.dropped == b.dropped &&
         a.dead_lettered == b.dead_lettered && a.forwarded == b.forwarded &&
         a.mailbox_overflow == b.mailbox_overflow;
}

bool same_book(const LiveBookStats& a, const LiveBookStats& b) {
  return a.inserts == b.inserts && a.entries_shifted == b.entries_shifted &&
         a.rounds_finalized == b.rounds_finalized &&
         a.tie_entries_permuted == b.tie_entries_permuted &&
         a.sorts_at_close == b.sorts_at_close &&
         a.chunk_splits == b.chunk_splits;
}

bool same_epoch(const EpochStats& a, const EpochStats& b) {
  return a.epochs == b.epochs && a.injected == b.injected &&
         a.barriers == b.barriers && a.widened == b.widened;
}

ThroughputConfig shape(std::size_t clients, std::size_t threads,
                       std::size_t rounds, std::uint64_t seed) {
  ThroughputConfig config;
  config.clients = clients;
  config.shards = 4;
  config.threads = threads;
  config.rounds = rounds;
  config.seed = seed;
  return config;
}

void phased_matches_session(const std::string& label,
                            const ThroughputConfig& config) {
  const TpdProtocol tpd(Money::from_units(50));
  const ThroughputResult shipped = run_throughput_session(tpd, config);
  const ThroughputResult phased = perfbench::run_phased_zi(tpd, config);
  check(shipped.bids_accepted == phased.bids_accepted,
        label + ": bids_accepted");
  check(shipped.bids_accepted > 0, label + ": no bids accepted");
  check(shipped.trades == phased.trades, label + ": trades");
  check(shipped.rounds == phased.rounds, label + ": rounds");
  check(shipped.sim_time == phased.sim_time, label + ": sim_time");
  check(same_bus(shipped.bus, phased.bus), label + ": BusStats");
  check(shipped.shard_bus.size() == phased.shard_bus.size(),
        label + ": shard count");
  for (std::size_t s = 0; s < shipped.shard_bus.size(); ++s) {
    check(same_bus(shipped.shard_bus[s], phased.shard_bus[s]),
          label + ": shard BusStats " + std::to_string(s));
  }
  check(same_book(shipped.book, phased.book), label + ": LiveBookStats");
  check(same_epoch(shipped.epoch, phased.epoch), label + ": EpochStats");
}

struct SessionOutput {
  Counts counts;
  std::int64_t realized = 0;
  std::int64_t efficient = 0;
};

SessionOutput run_session(const ThroughputConfig& config) {
  const TpdProtocol tpd(Money::from_units(50));
  ZiSession session(tpd, config, nullptr);
  for (std::size_t r = 0; r < config.rounds; ++r) session.tally(session.step());
  session.check_invariants();
  SessionOutput output{session.counts(), session.realized_micros(),
                       session.efficient_micros()};
  session.close();
  session.destroy();
  return output;
}

void thread_count_invariant() {
  const SessionOutput one = run_session(shape(256, 1, 200, 5));
  const SessionOutput two = run_session(shape(256, 2, 200, 5));
  check(one.counts == two.counts,
        "256 traders, 1 vs 2 threads: counts differ on " +
            one.counts.first_difference(two.counts));
  check(one.realized == two.realized && one.efficient == two.efficient,
        "256 traders, 1 vs 2 threads: surplus differs");
}

void offline_replica_matches() {
  const TpdProtocol tpd(Money::from_units(50));
  const PmdProtocol pmd;
  const std::vector<const DoubleAuctionProtocol*> protocols{&tpd, &pmd};
  const InstanceGenerator generator = fixed_count_generator(50, 50);
  ExperimentConfig config;
  config.instances = 300;
  config.seed = 77;
  const ComparisonResult shipped =
      run_comparison(generator, protocols, config);
  Tracer tracer;
  std::uint64_t bids_ranked = 0;
  const ComparisonResult replica = perfbench::traced_comparison(
      generator, protocols, config, tracer, bids_ranked);
  check(shipped.pareto.mean() == replica.pareto.mean(),
        "offline replica: Pareto surplus");
  for (const char* name : {"tpd", "pmd"}) {
    const ProtocolSummary& a = shipped.summary(name);
    const ProtocolSummary& b = replica.summary(name);
    check(a.total.mean() == b.total.mean() &&
              a.except_auctioneer.mean() == b.except_auctioneer.mean() &&
              a.trades.mean() == b.trades.mean(),
          std::string("offline replica: ") + name + " summary");
  }
  check(bids_ranked == config.instances * 100, "offline replica: bids ranked");
  check(tracer.totals("protocols.tpd.clear").count == 300 &&
            tracer.totals("core.validate").count == 600,
        "offline replica: spans recorded");
}

}  // namespace

int main() {
  phased_matches_session("zi_deep shape", shape(10'000, 1, 3, 1));
  phased_matches_session("256 traders, 2 threads", shape(256, 2, 60, 2));
  phased_matches_session("256 traders, 1 thread", shape(256, 1, 60, 3));
  thread_count_invariant();
  offline_replica_matches();
  if (failures == 0) std::cout << "perfbench equivalence: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
