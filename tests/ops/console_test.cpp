// ConsoleSession end-to-end: the full command surface against a live
// exchange, runtime config landing only at round boundaries, and the
// tentpole bit-identity claim — the same script produces byte-identical
// reply transcripts AND the same exchange digest for 1, 2, and 8 worker
// threads, pinned with a golden digest.
#include "ops/console.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/money.h"
#include "protocols/tpd.h"

namespace fnda::ops {
namespace {

const std::vector<std::string>& golden_script() {
  static const std::vector<std::string> kScript = {
      "status",
      "run 2",
      "metrics show",
      "hist fnda_server_round_bids",
      "book dump 0",
      "escrow show",
      "config show",
      "config set retained_rounds 2",
      "shard pause 1",
      "run 1",
      "shard resume 1",
      "config set announce_interval_us 5000",
      "run 1",
      "audit tail 5",
      "health",
      "digest",
  };
  return kScript;
}

struct ScriptRun {
  std::string transcript;
  std::uint64_t digest = 0;
  std::uint64_t breaches = 0;
};

ScriptRun run_script(std::size_t threads,
                     const std::vector<std::string>& script) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.clients = 64;
  config.shards = 8;
  config.threads = threads;
  config.seed = 7;
  ConsoleSession session(tpd, std::move(config));

  ScriptRun result;
  for (const std::string& line : script) {
    const Reply reply = session.execute(line);
    EXPECT_TRUE(reply.ok) << line << ": " << reply.text();
    result.transcript += "> " + line + '\n' + reply.text() + '\n';
  }
  result.digest = session.digest();
  result.breaches = session.watchdog().total_breaches();
  return result;
}

// The acceptance-criteria pin: replies and exchange digest are
// bit-identical for every worker count.  The digest constant is the
// golden value; a change here means the deterministic replay contract
// moved and every thread count moved with it.
TEST(ConsoleSession, TranscriptAndDigestThreadCountInvariant) {
  const ScriptRun t1 = run_script(1, golden_script());
  const ScriptRun t2 = run_script(2, golden_script());
  const ScriptRun t8 = run_script(8, golden_script());

  EXPECT_EQ(t1.transcript, t2.transcript);
  EXPECT_EQ(t1.transcript, t8.transcript);
  EXPECT_EQ(t1.digest, t2.digest);
  EXPECT_EQ(t1.digest, t8.digest);
  EXPECT_EQ(t1.breaches, t2.breaches);
  EXPECT_EQ(t1.breaches, t8.breaches);
  EXPECT_EQ(t1.digest, 0x89133dbc59b37c7aull);
}

TEST(ConsoleSession, ConfigChangesLandOnlyAtRoundBoundaries) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));
  MultiServerExchange& exchange = session.exchange();

  EXPECT_TRUE(session.execute("config set retained_rounds 3").ok);
  // Staged, not applied: the active config and generation are untouched.
  EXPECT_EQ(exchange.runtime_config().active().retained_rounds, 0u);
  EXPECT_EQ(exchange.runtime_config().generation(), 0u);
  EXPECT_TRUE(exchange.runtime_config().has_pending());

  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(exchange.runtime_config().active().retained_rounds, 3u);
  EXPECT_EQ(exchange.runtime_config().generation(), 1u);
  EXPECT_FALSE(exchange.runtime_config().has_pending());
  EXPECT_EQ(exchange.server(0).config().retained_rounds, 3u);
}

TEST(ConsoleSession, RetainedRoundsEvictsOldRounds) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 1;
  ConsoleSession session(tpd, std::move(config));
  AuctionServer& server = session.exchange().server(0);

  EXPECT_TRUE(session.execute("run 1").ok);
  ASSERT_TRUE(server.latest_round().has_value());
  const RoundId first = *server.latest_round();
  EXPECT_TRUE(session.execute("run 2").ok);
  ASSERT_NE(server.ranked_of(first), nullptr);  // unbounded retention

  EXPECT_TRUE(session.execute("config set retained_rounds 1").ok);
  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(server.ranked_of(first), nullptr);  // evicted down to 1
  ASSERT_TRUE(server.latest_round().has_value());
  EXPECT_NE(server.ranked_of(*server.latest_round()), nullptr);
}

TEST(ConsoleSession, PausedShardSkipsRounds) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));
  MultiServerExchange& exchange = session.exchange();

  EXPECT_TRUE(session.execute("shard pause 1").ok);
  EXPECT_TRUE(exchange.shard_paused(1));
  EXPECT_TRUE(session.execute("run 2").ok);
  EXPECT_EQ(exchange.server(0).rounds_completed(), 2u);
  EXPECT_EQ(exchange.server(1).rounds_completed(), 0u);

  EXPECT_TRUE(session.execute("shard resume 1").ok);
  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(exchange.server(1).rounds_completed(), 1u);
}

TEST(ConsoleSession, ShardBoundsValidatedAtRuntime) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));

  // The shard bound is the `shard` parameter's, set from the session's
  // shard count, so every shard command reports it the same way.
  for (const char* command : {"shard pause", "shard resume", "shard drain",
                              "book dump"}) {
    const Reply reply = session.execute(std::string(command) + " 2");
    EXPECT_FALSE(reply.ok) << command;
    EXPECT_EQ(reply.text(), "error: <shard> out of range [0, 1]: 2")
        << command;
  }
  EXPECT_FALSE(session.execute("shard pause 5").ok);
  EXPECT_EQ(session.execute("config set nope 1").text(),
            "error: unknown command: 'config set nope' (try 'help')");
  EXPECT_EQ(session.execute("config set retained_rounds -1").text(),
            "error: <retained_rounds> out of range [0, 2147483647]: -1");
  EXPECT_EQ(session.execute("config set min_deposit_micros 4611686018427387904")
                .text(),
            "error: <min_deposit_micros> out of range [0, "
            "4611686018427387903]: 4611686018427387904");
  EXPECT_EQ(session.execute("config set announce_interval_us 1x").text(),
            "error: <announce_interval_us> expects an integer, got '1x'");
  EXPECT_FALSE(session.execute("hist not_a_metric").ok);
  EXPECT_FALSE(session.execute("unknowncmd").ok);
}

TEST(ConsoleSession, ConfigShowMarksChangedValuesPending) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleSession session(tpd, ConsoleConfig{});
  const auto retained_row = [&session] {
    return session.execute("config show").lines.at(2);
  };

  EXPECT_TRUE(session.execute("config set retained_rounds 4").ok);
  EXPECT_TRUE(session.execute("config set retained_rounds 6").ok);
  EXPECT_EQ(retained_row().rfind("  retained_rounds = 0 (pending: 6)  [0, ", 0),
            0u);
  // Staging the active value is pending (status says so) but changes no
  // row, and applying it starts no generation.
  EXPECT_TRUE(session.execute("config set retained_rounds 0").ok);
  EXPECT_TRUE(session.exchange().runtime_config().has_pending());
  EXPECT_EQ(retained_row().rfind("  retained_rounds = 0  [0, ", 0), 0u);
  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(session.exchange().runtime_config().generation(), 0u);
}

// docs/observability.md's runtime-config table must list exactly the
// console's `config set <key>` commands, in order, with their bounds.
TEST(ConsoleSession, RuntimeConfigDocTableMatchesDeclaredKeys) {
  std::ifstream doc(FNDA_SOURCE_DIR "/docs/observability.md");
  ASSERT_TRUE(doc) << "cannot open docs/observability.md";
  std::vector<std::string> documented;
  std::string line;
  bool in_section = false;
  while (std::getline(doc, line)) {
    if (line.rfind("### ", 0) == 0) in_section = line == "### Runtime config";
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::size_t key_end = line.find('`', 3);
    const std::size_t open = line.find('[', key_end);
    const std::size_t close = line.find(']', open);
    ASSERT_NE(close, std::string::npos) << line;
    documented.push_back(line.substr(3, key_end - 3) + " " +
                         line.substr(open, close - open + 1));
  }

  const TpdProtocol tpd(Money::from_units(50));
  ConsoleSession session(tpd, ConsoleConfig{});
  const std::string prefix = "config set ";
  std::vector<std::string> declared;
  for (const CommandSpec& spec : session.commands().commands()) {
    if (spec.name.rfind(prefix, 0) != 0) continue;
    ASSERT_EQ(spec.params.size(), 1u) << spec.name;
    const ParamSpec& value = spec.params.front();
    declared.push_back(spec.name.substr(prefix.size()) + " [" +
                       std::to_string(value.min_value) + ", " +
                       std::to_string(value.max_value) + "]");
  }
  EXPECT_EQ(declared.size(), 3u);
  EXPECT_EQ(documented, declared);
}

TEST(ConsoleSession, CommentsAndBlanksAreNoops) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleSession session(tpd, ConsoleConfig{});
  EXPECT_TRUE(session.execute("# a comment").ok);
  EXPECT_TRUE(session.execute("").ok);
  EXPECT_TRUE(session.execute("   ").ok);
  EXPECT_FALSE(session.done());
  EXPECT_TRUE(session.execute("quit").ok);
  EXPECT_TRUE(session.done());
}

TEST(ConsoleSession, HealthBreachCountersAreDeterministic) {
  // An impossible SLO breaches on every round, on every thread count.
  const auto breaches_at = [](std::size_t threads) {
    const TpdProtocol tpd(Money::from_units(50));
    ConsoleConfig config;
    config.shards = 4;
    config.threads = threads;
    config.slo_rules = {"rounds max(fnda_epoch_total) <= 0"};
    ConsoleSession session(tpd, std::move(config));
    EXPECT_TRUE(session.execute("run 3").ok);
    return session.watchdog().total_breaches();
  };
  const std::uint64_t b1 = breaches_at(1);
  EXPECT_EQ(b1, 3u);  // one evaluation per round, all breaching
  EXPECT_EQ(breaches_at(2), b1);
  EXPECT_EQ(breaches_at(4), b1);
}

TEST(ConsoleSession, MalformedSloRuleThrows) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.slo_rules = {"not a rule ("};
  EXPECT_THROW(ConsoleSession(tpd, std::move(config)),
               std::invalid_argument);
}

TEST(ConsoleSession, HealthCountersSurfaceInMergedExposition) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));
  EXPECT_TRUE(session.execute("run 1").ok);

  const Reply prom = session.execute("metrics dump --prom");
  ASSERT_TRUE(prom.ok);
  const std::string text = prom.text();
  EXPECT_NE(text.find("fnda_health_evaluations_total 1"), std::string::npos);
  EXPECT_NE(text.find("fnda_health_breaches_total"), std::string::npos);
  EXPECT_NE(text.find("fnda_health_breach_delivery_p99_total"),
            std::string::npos);
}

}  // namespace
}  // namespace fnda::ops
