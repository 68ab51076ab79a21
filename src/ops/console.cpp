#include "ops/console.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/export.h"
#include "ops/format.h"

namespace fnda::ops {
namespace {

std::string hex_digest(std::uint64_t digest) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(digest >> shift) & 0xf];
  }
  return out;
}

/// Renders a fixed-point micros ratio as a 6-decimal string ("0.012500").
std::string micros_ratio_text(std::uint64_t micros) {
  std::string frac = std::to_string(micros % 1'000'000ull);
  while (frac.size() < 6) frac.insert(frac.begin(), '0');
  return std::to_string(micros / 1'000'000ull) + "." + frac;
}

}  // namespace

ConsoleSession::ConsoleSession(const DoubleAuctionProtocol& protocol,
                               ConsoleConfig config)
    : config_(std::move(config)) {
  MultiExchangeConfig mx;
  mx.shards = config_.shards;
  mx.threads = config_.threads;
  mx.bus.drop_probability = config_.drop_probability;
  mx.bus.duplicate_probability = config_.duplicate_probability;
  mx.server.domain = ValueDomain{Money::from_units(config_.value_low),
                                 Money::from_units(config_.value_high)};
  mx.initial_cash = MultiServerExchange::zi_endowment(config_.max_rounds);
  mx.seed = config_.seed;
  mx.telemetry = config_.telemetry;
  exchange_ = std::make_unique<MultiServerExchange>(protocol, mx);

  std::vector<SloRule> rules;
  if (config_.slo_rules.empty()) {
    rules = HealthWatchdog::default_rules();
  } else {
    for (const std::string& text : config_.slo_rules) {
      SloRule rule;
      std::string error;
      if (!SloRule::parse(text, &rule, &error)) {
        throw std::invalid_argument("bad SLO rule '" + text + "': " + error);
      }
      rules.push_back(std::move(rule));
    }
  }
  watchdog_ = std::make_unique<HealthWatchdog>(std::move(rules));
  if (obs::SessionTelemetry* telemetry = exchange_->telemetry()) {
    // Health counters ride the standard exposition: merged snapshots (and
    // thus metrics dump / the Prometheus surface) include them.
    watchdog_->bind_metrics(telemetry->driver().metrics);
  }

  exchange_->add_zi_traders(config_.clients, config_.value_low,
                            config_.value_high, config_.max_rounds);

  register_commands();
}

ConsoleSession::~ConsoleSession() = default;

obs::MetricsSnapshot ConsoleSession::merged_snapshot() const {
  if (const obs::SessionTelemetry* telemetry = exchange_->telemetry()) {
    return telemetry->merged_snapshot();
  }
  return obs::MetricsSnapshot{};
}

Reply ConsoleSession::execute(const std::string& line) {
  std::size_t first = 0;
  while (first < line.size() && (line[first] == ' ' || line[first] == '\t')) {
    ++first;
  }
  if (first == line.size() || line[first] == '#') return Reply{};
  return commands_.dispatch(line);
}

std::uint64_t ConsoleSession::digest() const {
  std::uint64_t digest = round_digest_;
  exchange_->fold_ledger_totals(digest);
  return digest;
}

Reply ConsoleSession::cmd_run(const Invocation& invocation) {
  const std::int64_t rounds = invocation.get_int("rounds");
  std::uint64_t trades = 0;
  std::uint64_t breaches = 0;
  for (std::int64_t r = 0; r < rounds; ++r) {
    const std::vector<RoundId> ids = exchange_->open_rounds(config_.open_for);
    exchange_->drive_to_quiescence();
    trades += exchange_->fold_rounds(round_digest_, ids);
    ++rounds_run_;
    // One watchdog evaluation per round boundary, on the quiescent merged
    // snapshot — the epoch-cadence SLO check.
    breaches += watchdog_->evaluate(merged_snapshot());
  }
  return ReplyBuilder()
      .field("rounds", static_cast<std::uint64_t>(rounds))
      .field("trades", trades)
      .field("breaches", breaches)
      .field("rounds_total", rounds_run_)
      .build();
}

Reply ConsoleSession::cmd_status(const Invocation&) {
  const RuntimeConfig& runtime = exchange_->runtime_config();
  return ReplyBuilder()
      .field("shards", static_cast<std::uint64_t>(exchange_->shard_count()))
      .field("paused", static_cast<std::uint64_t>(exchange_->paused_count()))
      .field("rounds_total", rounds_run_)
      .field("rounds_completed",
             static_cast<std::uint64_t>(exchange_->rounds_completed()))
      .field("sim_now_us", exchange_->now().micros)
      .field("config_generation", runtime.generation())
      .field("config_pending", runtime.has_pending())
      .build();
}

Reply ConsoleSession::cmd_metrics_show(const Invocation&) {
  ReplyBuilder builder;
  for (std::string& line : render_metrics_table(merged_snapshot())) {
    builder.row(std::move(line));
  }
  return builder.build();
}

Reply ConsoleSession::cmd_metrics_dump(const Invocation& invocation) {
  const obs::MetricsSnapshot snapshot = merged_snapshot();
  Reply reply;
  std::ostringstream json;
  obs::write_json_snapshot(json, snapshot);
  if (invocation.flag("json")) {
    std::string body = json.str();
    if (!body.empty() && body.back() == '\n') body.pop_back();
    reply.lines.push_back(body);
  } else {
    std::istringstream text(obs::prometheus_text(snapshot));
    std::string line;
    while (std::getline(text, line)) reply.lines.push_back(line);
  }
  reply.json = "{\"ok\":true,\"snapshot\":" + json.str();
  if (!reply.json.empty() && reply.json.back() == '\n') reply.json.pop_back();
  reply.json += '}';
  return reply;
}

Reply ConsoleSession::cmd_hist(const Invocation& invocation) {
  const std::string& name = invocation.get("name");
  const obs::MetricsSnapshot snapshot = merged_snapshot();
  const obs::MetricValue* value = snapshot.find(name);
  if (value == nullptr) {
    return Reply::error("no such metric: '" + name + "'");
  }
  if (value->kind != obs::MetricKind::kHistogram) {
    return Reply::error("'" + name + "' is not a histogram");
  }
  ReplyBuilder builder;
  for (std::string& line : render_histogram(name, *value)) {
    builder.row(std::move(line));
  }
  return builder.build();
}

Reply ConsoleSession::cmd_book_dump(const Invocation& invocation) {
  const std::int64_t shard = invocation.get_int("shard");
  const std::int64_t depth = invocation.get_int("depth");
  if (shard < 0 ||
      static_cast<std::size_t>(shard) >= exchange_->shard_count()) {
    return Reply::error("shard out of range (have " +
                        std::to_string(exchange_->shard_count()) + ")");
  }
  const AuctionServer& server = exchange_->server(
      static_cast<std::size_t>(shard));
  const std::optional<RoundId> round = server.latest_round();
  if (!round.has_value()) {
    return Reply::error("shard " + std::to_string(shard) +
                        " has no completed round");
  }
  const SortedBook* ranked = server.ranked_of(*round);
  if (ranked == nullptr) {
    return Reply::error("round evicted (retained_rounds)");
  }
  ReplyBuilder builder;
  builder.field("shard", static_cast<std::uint64_t>(shard));
  builder.field("round", round->value());
  builder.field("buyers", static_cast<std::uint64_t>(ranked->buyer_count()));
  builder.field("sellers",
                static_cast<std::uint64_t>(ranked->seller_count()));
  const std::size_t limit = static_cast<std::size_t>(depth);
  const auto& buyers = ranked->buyers();
  for (std::size_t i = 0; i < buyers.size() && i < limit; ++i) {
    builder.row("  buy  " + std::to_string(i + 1) + ": id-" +
                std::to_string(buyers[i].identity.value()) + " @ " +
                buyers[i].value.to_string());
  }
  const auto& sellers = ranked->sellers();
  for (std::size_t i = 0; i < sellers.size() && i < limit; ++i) {
    builder.row("  sell " + std::to_string(i + 1) + ": id-" +
                std::to_string(sellers[i].identity.value()) + " @ " +
                sellers[i].value.to_string());
  }
  return builder.build();
}

Reply ConsoleSession::cmd_escrow_show(const Invocation&) {
  ReplyBuilder builder;
  builder.field("total_held_micros", exchange_->escrow_total_held().micros());
  for (std::size_t s = 0; s < exchange_->shard_count(); ++s) {
    const EscrowService& escrow = exchange_->escrow(s);
    builder.row("  shard " + std::to_string(s) + ": held=" +
                escrow.total_held().to_string() + " identities=" +
                std::to_string(escrow.holder_count()));
  }
  return builder.build();
}

Reply ConsoleSession::cmd_audit_tail(const Invocation& invocation) {
  const std::int64_t count = invocation.get_int("count");
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < exchange_->shard_count(); ++s) {
    total += exchange_->audit(s).records().size();
  }
  ReplyBuilder builder;
  builder.field("total", total);
  for (const AuditRecord& record :
       exchange_->merged_audit_tail(static_cast<std::size_t>(count))) {
    std::string row = "  ";
    append_line(record, row);
    builder.row(std::move(row));
  }
  return builder.build();
}

Reply ConsoleSession::cmd_trace(bool start) {
  obs::SessionTelemetry* telemetry = exchange_->telemetry();
  if (telemetry == nullptr) {
    return Reply::error("telemetry is disabled for this session");
  }
  telemetry->set_trace_enabled(start);
  return ReplyBuilder().field("tracing", start).build();
}

Reply ConsoleSession::cmd_trace_export(const Invocation& invocation) {
  obs::SessionTelemetry* telemetry = exchange_->telemetry();
  if (telemetry == nullptr) {
    return Reply::error("telemetry is disabled for this session");
  }
  const std::string& path = invocation.get("file");
  const obs::TraceLog log = telemetry->flush_trace();
  std::ofstream out(path);
  if (!out) {
    return Reply::error("cannot open '" + path + "' for writing");
  }
  obs::write_chrome_trace(out, log);
  return ReplyBuilder()
      .field("file", path)
      .field("events", static_cast<std::uint64_t>(log.events.size()))
      .field("dropped", log.dropped)
      .build();
}

Reply ConsoleSession::cmd_shard_pause(const Invocation& invocation) {
  const std::int64_t shard = invocation.get_int("shard");
  if (shard < 0 ||
      static_cast<std::size_t>(shard) >= exchange_->shard_count()) {
    return Reply::error("shard out of range (have " +
                        std::to_string(exchange_->shard_count()) + ")");
  }
  exchange_->pause_shard(static_cast<std::size_t>(shard));
  return ReplyBuilder()
      .field("shard", static_cast<std::uint64_t>(shard))
      .field("paused", true)
      .build();
}

Reply ConsoleSession::cmd_shard_resume(const Invocation& invocation) {
  const std::int64_t shard = invocation.get_int("shard");
  if (shard < 0 ||
      static_cast<std::size_t>(shard) >= exchange_->shard_count()) {
    return Reply::error("shard out of range (have " +
                        std::to_string(exchange_->shard_count()) + ")");
  }
  exchange_->resume_shard(static_cast<std::size_t>(shard));
  return ReplyBuilder()
      .field("shard", static_cast<std::uint64_t>(shard))
      .field("paused", false)
      .build();
}

Reply ConsoleSession::cmd_shard_drain(const Invocation& invocation) {
  const std::int64_t shard = invocation.get_int("shard");
  if (shard < 0 ||
      static_cast<std::size_t>(shard) >= exchange_->shard_count()) {
    return Reply::error("shard out of range (have " +
                        std::to_string(exchange_->shard_count()) + ")");
  }
  // Drain = pause + run every shard to quiescence: the shard's
  // in-flight round (if any) clears and nothing new opens on it.
  exchange_->pause_shard(static_cast<std::size_t>(shard));
  exchange_->drive_to_quiescence();
  return ReplyBuilder()
      .field("shard", static_cast<std::uint64_t>(shard))
      .field("paused", true)
      .field("drained", true)
      .build();
}

Reply ConsoleSession::cmd_config_show(const Invocation&) {
  const RuntimeConfig& runtime = exchange_->runtime_config();
  ReplyBuilder builder;
  builder.field("generation", runtime.generation());
  builder.field("applied_at_round", runtime.applied_at());
  for (const ConfigEntry& entry : runtime.entries()) {
    std::string row = "  " + entry.key + " = " + std::to_string(entry.active);
    if (entry.has_pending) {
      row += " (pending: " + std::to_string(entry.pending) + ")";
    }
    row += "  [" + std::to_string(entry.min_value) + ", " +
           std::to_string(entry.max_value) + "] " + entry.help;
    builder.row(std::move(row));
  }
  return builder.build();
}

Reply ConsoleSession::cmd_config_set(const Invocation& invocation) {
  const std::string& key = invocation.get("key");
  const std::string& value = invocation.get("value");
  std::string error;
  if (!exchange_->runtime_config().stage(key, value, &error)) {
    return Reply::error(error);
  }
  return ReplyBuilder()
      .field("key", key)
      .field("pending", value)
      .field("applies", "next round")
      .build();
}

Reply ConsoleSession::cmd_health(const Invocation&) {
  ReplyBuilder builder;
  builder.field("evaluations", watchdog_->evaluations());
  builder.field("breaches_total", watchdog_->total_breaches());
  for (const HealthWatchdog::RuleState& state : watchdog_->states()) {
    std::string status = "ok";
    if (!state.last_present) {
      status = "absent";
    } else if (state.last_breached) {
      status = "BREACH";
    }
    const bool ratio = state.rule.kind == SloKind::kRatioMax;
    builder.row("  " + state.rule.to_string() + " | value=" +
                (ratio ? micros_ratio_text(state.last_value)
                       : std::to_string(state.last_value)) +
                " breaches=" + std::to_string(state.breaches) + " " + status);
  }
  return builder.build();
}

Reply ConsoleSession::cmd_digest(const Invocation&) {
  return ReplyBuilder().field("digest", hex_digest(digest())).build();
}

void ConsoleSession::register_commands() {
  auto add = [this](std::string name, std::vector<std::string> aliases,
                    std::string help, std::vector<ParamSpec> params,
                    std::vector<std::string> flags,
                    Reply (ConsoleSession::*handler)(const Invocation&)) {
    CommandSpec spec;
    spec.name = std::move(name);
    spec.aliases = std::move(aliases);
    spec.help = std::move(help);
    spec.params = std::move(params);
    spec.flags = std::move(flags);
    spec.handler = [this, handler](const Invocation& invocation) {
      return (this->*handler)(invocation);
    };
    commands_.add(std::move(spec));
  };

  add("run", {"r"}, "advance the session by N rounds",
      {ParamSpec::integer("rounds", 1, 100'000, "rounds to run")
           .optional("1")},
      {}, &ConsoleSession::cmd_run);
  add("status", {"st"}, "session overview (shards, rounds, config)", {}, {},
      &ConsoleSession::cmd_status);
  add("metrics show", {"m"}, "merged metrics as an aligned table", {}, {},
      &ConsoleSession::cmd_metrics_show);
  add("metrics dump", {"md"},
      "merged metrics in Prometheus text (--json for the JSON document)", {},
      {"json", "prom"}, &ConsoleSession::cmd_metrics_dump);
  add("hist", {}, "percentile readout of one histogram metric",
      {ParamSpec::string("name", "metric name")}, {},
      &ConsoleSession::cmd_hist);
  add("book dump", {"bd"}, "ranked book lanes of a shard's latest round",
      {ParamSpec::integer("shard", 0, 1 << 20, "shard index"),
       ParamSpec::integer("depth", 1, 10'000, "entries per side")
           .optional("10")},
      {}, &ConsoleSession::cmd_book_dump);
  add("escrow show", {"es"}, "escrowed deposits per shard", {}, {},
      &ConsoleSession::cmd_escrow_show);
  add("audit tail", {"at"}, "last N merged audit records",
      {ParamSpec::integer("count", 1, 100'000, "records to show")
           .optional("10")},
      {}, &ConsoleSession::cmd_audit_tail);
  {
    CommandSpec spec;
    spec.name = "trace start";
    spec.help = "enable trace span recording";
    spec.handler = [this](const Invocation&) { return cmd_trace(true); };
    commands_.add(std::move(spec));
  }
  {
    CommandSpec spec;
    spec.name = "trace stop";
    spec.help = "disable trace span recording";
    spec.handler = [this](const Invocation&) { return cmd_trace(false); };
    commands_.add(std::move(spec));
  }
  add("trace export", {},
      "write the Chrome trace collected so far to a file",
      {ParamSpec::string("file", "output path")}, {},
      &ConsoleSession::cmd_trace_export);
  add("shard pause", {}, "stop opening rounds on a shard",
      {ParamSpec::integer("shard", 0, 1 << 20, "shard index")}, {},
      &ConsoleSession::cmd_shard_pause);
  add("shard resume", {}, "resume opening rounds on a shard",
      {ParamSpec::integer("shard", 0, 1 << 20, "shard index")}, {},
      &ConsoleSession::cmd_shard_resume);
  add("shard drain", {},
      "pause a shard and drive every shard to quiescence",
      {ParamSpec::integer("shard", 0, 1 << 20, "shard index")}, {},
      &ConsoleSession::cmd_shard_drain);
  add("config show", {"cs"},
      "runtime config: active values, pending changes, bounds", {}, {},
      &ConsoleSession::cmd_config_show);
  add("config set", {},
      "stage a runtime config change (applies at the next round)",
      {ParamSpec::string("key", "config key (see config show)"),
       ParamSpec::string("value", "new value")},
      {}, &ConsoleSession::cmd_config_set);
  add("health", {"h"}, "SLO watchdog state and breach counters", {}, {},
      &ConsoleSession::cmd_health);
  add("digest", {}, "FNV-1a digest of every cleared round + ledger totals",
      {}, {}, &ConsoleSession::cmd_digest);
  {
    CommandSpec spec;
    spec.name = "quit";
    spec.aliases = {"exit", "q"};
    spec.help = "leave the console";
    spec.handler = [this](const Invocation&) {
      done_ = true;
      return ReplyBuilder().field("bye", true).build();
    };
    commands_.add(std::move(spec));
  }
}

}  // namespace fnda::ops
