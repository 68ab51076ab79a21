// ConsoleSession: the live operations console over a MultiServerExchange.
//
// The session owns an exchange plus a population of truthful traders (the
// same workload shape as run_throughput_session) and exposes the typed
// command plane against it.  Commands only ever run between drives — the
// exchange is quiescent at every epoch barrier run_round leaves behind —
// so every reply reads a deterministic snapshot and the whole transcript
// (replies AND the exchange digest) is byte-identical for every worker
// thread count.  Runtime config changes stage through RuntimeConfig and
// land at the next `run`'s round boundary.
//
// This is the seam the future network gateway (ROADMAP item 1) serves:
// the gateway will feed lines into execute() and stream Reply objects
// back; nothing here knows about stdin or sockets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/fnv.h"
#include "market/multi_exchange.h"
#include "ops/command.h"
#include "ops/health.h"

namespace fnda::ops {

struct ConsoleConfig {
  std::size_t clients = 64;
  std::size_t shards = 2;
  std::size_t threads = 1;
  std::uint64_t seed = 42;
  /// Rounds stay open this long (sim time) on every `run`.
  SimTime open_for = SimTime::millis(100);
  std::int64_t value_low = 0;
  std::int64_t value_high = 200;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  /// Sizing allowance for trader cash/goods endowments: sessions can run
  /// this many rounds before sellers run out of stock or deposit cash.
  std::size_t max_rounds = 1024;
  obs::TelemetryOptions telemetry{};
  /// SLO rule declarations (health.h syntax); empty = default_rules().
  std::vector<std::string> slo_rules;
};

class ConsoleSession {
 public:
  /// Throws std::invalid_argument on a malformed SLO rule.  `protocol`
  /// must outlive the session.
  ConsoleSession(const DoubleAuctionProtocol& protocol, ConsoleConfig config);
  ~ConsoleSession();

  /// Executes one command line (tokenize, validate, run) and returns the
  /// structured reply.  Empty lines and `#` comments return ok/empty.
  Reply execute(const std::string& line);

  /// True once `quit`/`exit` ran; the REPL loop exits on it.
  bool done() const { return done_; }

  /// FNV-1a fold over every cleared round (shard, round id, fills) plus
  /// the current conservation totals — the bit-identity witness the
  /// golden tests pin across thread counts.
  std::uint64_t digest() const;

  std::uint64_t rounds_run() const { return rounds_run_; }
  MultiServerExchange& exchange() { return *exchange_; }
  const CommandTable& commands() const { return commands_; }
  const HealthWatchdog& watchdog() const { return *watchdog_; }

 private:
  void register_commands();
  Reply cmd_run(const Invocation& invocation);
  Reply cmd_status(const Invocation& invocation);
  Reply cmd_metrics_show(const Invocation& invocation);
  Reply cmd_metrics_dump(const Invocation& invocation);
  Reply cmd_hist(const Invocation& invocation);
  Reply cmd_book_dump(const Invocation& invocation);
  Reply cmd_escrow_show(const Invocation& invocation);
  Reply cmd_audit_tail(const Invocation& invocation);
  Reply cmd_trace(bool start);
  Reply cmd_trace_export(const Invocation& invocation);
  Reply cmd_shard_pause(const Invocation& invocation);
  Reply cmd_shard_resume(const Invocation& invocation);
  Reply cmd_shard_drain(const Invocation& invocation);
  Reply cmd_config_show(const Invocation& invocation);
  Reply cmd_config_set(const Invocation& invocation);
  Reply cmd_health(const Invocation& invocation);
  Reply cmd_digest(const Invocation& invocation);

  obs::MetricsSnapshot merged_snapshot() const;

  ConsoleConfig config_;
  std::unique_ptr<MultiServerExchange> exchange_;
  std::unique_ptr<HealthWatchdog> watchdog_;
  CommandTable commands_;
  std::uint64_t round_digest_ = kFnvOffsetBasis;
  std::uint64_t rounds_run_ = 0;
  bool done_ = false;
};

}  // namespace fnda::ops
