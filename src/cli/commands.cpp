#include "cli/commands.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/worker_pool.h"
#include "core/validation.h"
#include "ops/command.h"
#include "ops/console.h"
#include "ops/format.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_multi.h"
#include "protocols/vcg.h"
#include "serialize/csv.h"
#include "serialize/json.h"
#include "market/throughput.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "mechanism/dynamics.h"
#include "mechanism/manipulation.h"
#include "mechanism/search_telemetry.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "sim/threshold_search.h"

namespace fnda {
namespace {

using ops::Invocation;
using ops::ParamSpec;

constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
/// Money::from_double rounds value * 10^6 to int64 micros, so money flags
/// stay well inside +-9.2e12.
constexpr double kMoneyLimit = 9e12;

ParamSpec count(std::string name, std::int64_t min_value,
                std::int64_t fallback, std::string help) {
  return ParamSpec::integer(std::move(name), min_value, kMaxInt64,
                            std::move(help))
      .optional(std::to_string(fallback));
}

ParamSpec toggle(std::string name, bool fallback, std::string help) {
  return ParamSpec::integer(std::move(name), 0, 1, std::move(help))
      .optional(fallback ? "1" : "0");
}

ParamSpec money_option(std::string name, std::string fallback,
                       std::string help) {
  return ParamSpec::real(std::move(name), -kMoneyLimit, kMoneyLimit,
                         std::move(help))
      .optional(std::move(fallback));
}

ParamSpec probability(std::string name, std::string help) {
  return ParamSpec::real(std::move(name), 0.0, 1.0, std::move(help))
      .optional("0");
}

ParamSpec seed_option(std::uint64_t fallback) {
  return count("seed", 0, static_cast<std::int64_t>(fallback), "RNG seed");
}

/// A file path; absent means the command's default source or sink.
ParamSpec path_option(std::string name, std::string help) {
  return ParamSpec::string(std::move(name), std::move(help)).optional("");
}

ParamSpec book_option() {
  return path_option("book", "CSV book file (default: stdin)");
}

/// --protocol, --threshold and --theta, then `more`.
std::vector<ParamSpec> protocol_options(std::vector<ParamSpec> more) {
  std::vector<ParamSpec> options = {
      ParamSpec::choice("protocol",
                        {"tpd", "pmd", "vcg", "kda", "efficient",
                         "random-threshold"},
                        "clearing protocol")
          .optional("tpd"),
      money_option("threshold", "50",
                   "threshold price r (tpd, random-threshold)"),
      ParamSpec::real("theta", 0.0, 1.0, "price weight (kda only)")
          .optional("0.5")};
  for (ParamSpec& option : more) options.push_back(std::move(option));
  return options;
}

std::size_t get_size(const Invocation& args, std::string_view name) {
  return static_cast<std::size_t>(args.get_int(name));
}

std::uint64_t get_seed(const Invocation& args) {
  return static_cast<std::uint64_t>(args.get_int("seed"));
}

/// Builds the protocol named by --protocol; --threshold and --theta
/// parameterize the ones that need it.
ProtocolPtr make_protocol(const Invocation& args) {
  const std::string& name = args.get("protocol");
  if (args.has("theta") && name != "kda") {
    throw std::invalid_argument("--theta applies only to --protocol kda");
  }
  const Money threshold = money(args.get_real("threshold"));
  if (name == "tpd") return std::make_unique<TpdProtocol>(threshold);
  if (name == "pmd") return std::make_unique<PmdProtocol>();
  if (name == "vcg") return std::make_unique<VcgDoubleAuction>();
  if (name == "kda") {
    return std::make_unique<KDoubleAuction>(args.get_real("theta"));
  }
  if (name == "efficient") return std::make_unique<EfficientClearing>();
  return std::make_unique<RandomThresholdProtocol>(threshold);
}

int usage_error(std::ostream& err, const std::string& message) {
  err << "error: " << message << "\nrun 'fnda help' for usage\n";
  return 2;
}

/// The --low/--high value distribution of `simulate` and `optimize`.  Its
/// domain widens the default one just enough to hold the range, so a
/// negative or very high range draws legal bids.  nullopt when --low
/// exceeds --high.
std::optional<ValueDistribution> value_distribution(const Invocation& args) {
  const Money low = money(args.get_real("low"));
  const Money high = money(args.get_real("high"));
  if (high < low) return std::nullopt;
  const ValueDomain domain;
  return ValueDistribution{
      low, high,
      ValueDomain{std::min(domain.lowest, low), std::max(domain.highest, high)}};
}

constexpr const char* kInvertedRange = "--low must not exceed --high";

/// Reads --book FILE or stdin into a string; returns false on I/O error.
bool slurp_book(const Invocation& args, std::istream& in, std::ostream& err,
                std::string* text) {
  std::ifstream file;
  if (args.has("book")) {
    file.open(args.get("book"));
    if (!file) {
      err << "error: cannot open book file '" << args.get("book") << "'\n";
      return false;
    }
  }
  std::ostringstream buffer;
  buffer << (args.has("book") ? static_cast<std::istream&>(file) : in).rdbuf();
  *text = buffer.str();
  return true;
}

/// Reads the book and takes its declarations as the participants' true
/// values (the standard assumption when auditing an instance).  Returns
/// false on I/O error.
bool read_instance(const Invocation& args, std::istream& in,
                   std::ostream& err, SingleUnitInstance* instance) {
  std::string text;
  if (!slurp_book(args, in, err, &text)) return false;
  const OrderBook book = read_book_csv(text);
  for (const BidEntry& entry : book.buyers()) {
    instance->buyer_values.push_back(entry.value);
  }
  for (const BidEntry& entry : book.sellers()) {
    instance->seller_values.push_back(entry.value);
  }
  return true;
}

/// --manipulator side:index, e.g. "seller:2".  Throws
/// std::invalid_argument on anything else; an index past the book is
/// the evaluator's runtime error.
ManipulatorSpec parse_manipulator(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument(
        "--manipulator must be side:index, e.g. seller:2");
  }
  const std::string side = text.substr(0, colon);
  if (side != "buyer" && side != "seller") {
    throw std::invalid_argument("--manipulator side must be buyer or seller");
  }
  std::size_t index = 0;
  const char* begin = text.data() + colon + 1;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, index);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("--manipulator index must be a "
                                "non-negative integer, got '" +
                                text.substr(colon + 1) + "'");
  }
  return {side == "buyer" ? Side::kBuyer : Side::kSeller, index};
}

/// The closing lines shared by `attack` and `attack-search`.
void print_verdict(std::ostream& out, const SearchResult& result) {
  out << "truthful utility: " << format_fixed(result.truthful_utility, 4)
      << "\n"
      << "best deviation:   " << format_fixed(result.best_utility, 4)
      << "  via " << result.best_strategy.to_string() << "\n"
      << (result.profitable()
              ? "VERDICT: manipulable (profitable deviation found)\n"
              : "VERDICT: truthful play is optimal here\n");
}

int cmd_clear(const Invocation& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const std::string& format = args.get("format");

  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;

  const OrderBook book = read_book_csv(text);
  Rng rng(get_seed(args));
  const Outcome outcome = protocol->clear(book, rng);
  // VCG legitimately runs a deficit; everything else must balance.
  ValidationOptions options;
  options.allow_deficit = protocol->name() == "vcg";
  expect_valid_outcome(book, outcome, options);

  if (format == "csv") {
    out << write_outcome_csv(outcome);
  } else if (format == "json") {
    out << outcome_to_json(outcome) << '\n';
  } else {
    out << protocol->name() << ": " << outcome.trade_count()
        << " trades, auctioneer revenue " << outcome.auctioneer_revenue()
        << '\n';
    for (const Fill& fill : outcome.fills()) {
      out << "  " << to_string(fill.side) << ' ' << fill.identity.value()
          << (fill.side == Side::kBuyer ? " pays " : " receives ")
          << fill.price << '\n';
    }
  }
  return 0;
}

int cmd_clear_multi(const Invocation& args, std::istream& in,
                    std::ostream& out, std::ostream& err) {
  const Money threshold = money(args.get_real("threshold"));
  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;

  const MultiUnitBook book = read_multi_book_csv(text);
  const TpdMultiUnitProtocol protocol(threshold);
  Rng rng(get_seed(args));
  const MultiUnitOutcome outcome = protocol.clear(book, rng);
  const auto errors = validate_multi_outcome(book, outcome);
  if (!errors.empty()) {
    err << "error: invalid multi-unit outcome: " << errors.front() << "\n";
    return 1;
  }

  if (args.get("format") == "csv") {
    out << write_multi_outcome_csv(outcome);
  } else {
    out << protocol.name() << " (r = " << threshold << "): "
        << outcome.units_traded() << " units traded, auctioneer revenue "
        << outcome.auctioneer_revenue() << '\n';
    for (const auto& buyer : outcome.buyers) {
      out << "  buyer " << buyer.identity.value() << " takes " << buyer.units
          << " unit(s) for " << buyer.total_paid << '\n';
    }
    for (const auto& seller : outcome.sellers) {
      out << "  seller " << seller.identity.value() << " sells "
          << seller.units << " unit(s) for " << seller.total_received
          << '\n';
    }
  }
  return 0;
}

int cmd_simulate(const Invocation& args, std::istream&, std::ostream& out,
                 std::ostream& err) {
  const std::optional<ValueDistribution> values = value_distribution(args);
  if (!values) return usage_error(err, kInvertedRange);
  const ProtocolPtr protocol = make_protocol(args);
  const std::size_t buyers = get_size(args, "buyers");
  const std::size_t sellers = get_size(args, "sellers");
  ExperimentConfig config;
  config.instances = get_size(args, "instances");
  config.seed = get_seed(args);
  config.validation.allow_deficit = protocol->name() == "vcg";
  const double low = args.get_real("low");
  const double high = args.get_real("high");
  const std::int64_t binomial = args.get_int("binomial");
  const std::size_t threads = get_size(args, "threads");

  const InstanceGenerator generator =
      binomial > 0
          ? binomial_count_generator(static_cast<int>(binomial), 0.5, *values)
          : fixed_count_generator(buyers, sellers, *values);
  // The counter-based runner: the same numbers at every --threads.
  const ComparisonResult result =
      run_comparison_parallel(generator, {protocol.get()}, config, threads);
  const ProtocolSummary& summary = result.protocols.front();

  TextTable table({"metric", "mean", "ci95"});
  auto row = [&table](const char* metric, const RunningStats& stats) {
    table.add_row({metric, format_fixed(stats.mean(), 2),
                   "+/-" + format_fixed(stats.ci95_half_width(), 2)});
  };
  row("social surplus", summary.total);
  row("surplus except auctioneer", summary.except_auctioneer);
  row("auctioneer revenue", summary.auctioneer);
  row("trades", summary.trades);
  row("pareto surplus", result.pareto);
  out << protocol->name() << " on ";
  if (binomial > 0) {
    out << "m,n~B(" << binomial << ",0.5)";
  } else {
    out << buyers << "x" << sellers;
  }
  out << " U[" << low << "," << high << "], " << config.instances
      << " instances\n"
      << table;
  out << "efficiency: "
      << format_fixed(100.0 * result.ratio_total(protocol->name()), 2)
      << "% of Pareto\n";
  return 0;
}

int cmd_attack(const Invocation& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const ManipulatorSpec manipulator =
      parse_manipulator(args.get("manipulator"));
  SingleUnitInstance instance;
  if (!read_instance(args, in, err, &instance)) return 1;

  const DeviationEvaluator evaluator(*protocol, instance, manipulator);
  SearchConfig search;
  search.max_declarations = get_size(args, "max-declarations");
  const SearchResult result = find_best_deviation(evaluator, search);

  out << "protocol: " << protocol->name() << "\n"
      << "manipulator: " << to_string(manipulator.role) << " #"
      << manipulator.index << " (true value " << evaluator.true_value()
      << ")\n"
      << "strategies evaluated: " << result.strategies_evaluated
      << (result.truncated ? " (truncated)" : "") << "\n";
  print_verdict(out, result);
  return 0;
}

int cmd_attack_search(const Invocation& args, std::istream& in,
                      std::ostream& out, std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const ManipulatorSpec manipulator =
      parse_manipulator(args.get("manipulator"));
  const bool serial = args.get_int("serial") != 0;
  const char* side_text = to_string(manipulator.role);
  SingleUnitInstance instance;
  if (!read_instance(args, in, err, &instance)) return 1;

  EvalConfig eval;
  eval.replicates = get_size(args, "replicates");
  eval.seed = get_seed(args);
  const DeviationEvaluator evaluator(*protocol, instance, manipulator, eval);
  SearchConfig search;
  search.max_declarations = get_size(args, "max-declarations");
  search.threads = get_size(args, "threads");
  search.prune = args.get_int("prune") != 0;
  const SearchResult result = serial
                                  ? find_best_deviation_serial(evaluator,
                                                               search)
                                  : find_best_deviation(evaluator, search);
  const SearchStats& stats = result.stats;

  if (args.get_int("json") != 0) {
    // Machine-readable record (result + stats + timings); the Prometheus
    // dump via --metrics-out still works alongside.  Wall time is the
    // only nondeterministic field.
    out << "{\n"
        << "  \"protocol\": \"" << obs::json_escape(protocol->name())
        << "\",\n"
        << "  \"engine\": \"" << (serial ? "serial" : "parallel_pruned")
        << "\",\n"
        << "  \"manipulator\": {\"side\": \"" << side_text
        << "\", \"index\": " << manipulator.index << ", \"true_value\": \""
        << evaluator.true_value() << "\"},\n"
        << "  \"result\": {\n"
        << "    \"truthful_utility\": " << result.truthful_utility << ",\n"
        << "    \"best_utility\": " << result.best_utility << ",\n"
        << "    \"best_strategy\": \""
        << obs::json_escape(result.best_strategy.to_string()) << "\",\n"
        << "    \"profitable\": " << (result.profitable() ? "true" : "false")
        << ",\n"
        << "    \"truncated\": " << (result.truncated ? "true" : "false")
        << ",\n"
        << "    \"strategies_evaluated\": " << result.strategies_evaluated
        << "\n  },\n"
        << "  \"stats\": {\n"
        << "    \"threads_used\": " << stats.threads_used << ",\n"
        << "    \"strategies_enumerated\": " << stats.strategies_enumerated
        << ",\n"
        << "    \"strategies_evaluated\": " << stats.strategies_evaluated
        << ",\n"
        << "    \"pruned_by_bound\": " << stats.pruned_by_bound << ",\n"
        << "    \"pruned_in_subtree\": " << stats.pruned_in_subtree << ",\n"
        << "    \"pruned_by_warm_floor\": " << stats.pruned_by_warm_floor
        << ",\n"
        << "    \"dedup_skipped\": " << stats.dedup_skipped << ",\n"
        << "    \"fast_positions\": " << stats.fast_positions << ",\n"
        << "    \"clears_performed\": " << stats.clears_performed << "\n"
        << "  },\n"
        << "  \"wall_time_ns\": " << stats.wall_time_ns << "\n"
        << "}\n";
  } else {
    out << "protocol: " << protocol->name() << "\n"
        << "engine: " << (serial ? "serial reference" : "parallel pruned")
        << ", threads used: " << stats.threads_used << "\n"
        << "manipulator: " << side_text << " #" << manipulator.index
        << " (true value " << evaluator.true_value() << ")\n"
        << "candidates: " << stats.strategies_enumerated << " enumerated, "
        << stats.strategies_evaluated << " evaluated, "
        << stats.pruned_by_bound + stats.pruned_in_subtree << " pruned ("
        << stats.pruned_by_bound << " leaf, " << stats.pruned_in_subtree
        << " subtree), " << stats.dedup_skipped << " dedup-skipped"
        << (result.truncated ? ", truncated" : "") << "\n"
        << "positions: " << stats.fast_positions << " fast, "
        << stats.clears_performed << " full clears\n";
    if (stats.bound_slack_samples > 0) {
      out << "mean bound slack: "
          << format_fixed(static_cast<double>(stats.bound_slack_micros) /
                              (1e6 * static_cast<double>(
                                         stats.bound_slack_samples)),
                          4)
          << "\n";
    }
    out << "wall time: " << stats.wall_time_ns / 1000 << " us\n";
    print_verdict(out, result);
  }

  if (const std::string& metrics_out = args.get("metrics-out");
      !metrics_out.empty()) {
    obs::MetricsRegistry registry;
    bind_search_metrics(registry, stats);
    std::ofstream file(metrics_out);
    if (!file) {
      err << "error: cannot write " << metrics_out << '\n';
      return 1;
    }
    obs::write_prometheus(file, registry.snapshot());
  }
  return 0;
}

int cmd_dynamics(const Invocation& args, std::istream& in, std::ostream& out,
                 std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  SingleUnitInstance instance;
  if (!read_instance(args, in, err, &instance)) return 1;

  DynamicsConfig config;
  config.max_sweeps = get_size(args, "sweeps");
  config.search.max_declarations = get_size(args, "max-declarations");
  const DynamicsResult result =
      best_response_dynamics(*protocol, instance, config);

  out << "protocol: " << protocol->name() << "\n"
      << "converged: " << (result.converged ? "yes" : "no") << " after "
      << result.sweeps << " sweep(s), " << result.updates
      << " strategy update(s)\n"
      << "agents deviating from truth: " << result.deviators << "/"
      << result.agents.size() << "\n"
      << "surplus: truthful " << format_fixed(result.truthful_surplus, 2)
      << " -> strategic " << format_fixed(result.final_surplus, 2) << "\n";
  for (std::size_t a = 0; a < result.agents.size(); ++a) {
    const AgentState& agent = result.agents[a];
    out << "  " << to_string(agent.role) << " v=" << agent.true_value
        << " plays " << agent.strategy.to_string() << " (u="
        << format_fixed(agent.utility, 2) << ")\n";
  }
  return 0;
}

int cmd_sweep(const Invocation& args, std::istream&, std::ostream& out,
              std::ostream&) {
  const std::size_t participants = get_size(args, "participants");
  const std::int64_t step = args.get_int("step");
  ExperimentConfig config;
  config.instances = get_size(args, "instances");
  config.seed = get_seed(args);

  std::vector<std::unique_ptr<TpdProtocol>> protocols;
  std::vector<const DoubleAuctionProtocol*> pointers;
  std::vector<std::int64_t> thresholds;
  for (std::int64_t r = 0; r <= 100; r += step) {
    thresholds.push_back(r);
    protocols.push_back(std::make_unique<TpdProtocol>(money(r)));
    pointers.push_back(protocols.back().get());
  }
  const ComparisonResult result = run_comparison(
      fixed_count_generator(participants, participants), pointers, config);

  out << "threshold,surplus,surplus_except_auctioneer,pareto\n";
  for (std::size_t p = 0; p < pointers.size(); ++p) {
    out << thresholds[p] << ',' << format_fixed(result.protocols[p].total.mean(), 3)
        << ',' << format_fixed(result.protocols[p].except_auctioneer.mean(), 3)
        << ',' << format_fixed(result.pareto.mean(), 3) << '\n';
  }
  return 0;
}

int cmd_optimize(const Invocation& args, std::istream&, std::ostream& out,
                 std::ostream& err) {
  const std::optional<ValueDistribution> values = value_distribution(args);
  if (!values) return usage_error(err, kInvertedRange);
  const std::size_t buyers = get_size(args, "buyers");
  const std::size_t sellers = get_size(args, "sellers");
  ThresholdSearchConfig config;
  config.lo = args.has("lo") ? money(args.get_real("lo")) : values->low;
  config.hi = args.has("hi") ? money(args.get_real("hi")) : values->high;
  config.instances_per_eval = get_size(args, "instances");
  config.seed = get_seed(args);
  if (args.get("objective") == "traders") {
    config.objective = ThresholdObjective::kSurplusExceptAuctioneer;
  }

  const ThresholdSearchResult result =
      optimize_threshold(fixed_count_generator(buyers, sellers, *values),
                         config);
  out << "best threshold: " << result.best_threshold << '\n'
      << "expected surplus: " << format_fixed(result.best_value, 2) << '\n';
  return 0;
}

/// Writes `write`'s output to the file named by option `name`, if given.
/// Returns false (reported) when the file cannot be opened.
template <typename WriteFn>
bool write_file(const Invocation& args, std::string_view name,
                std::ostream& err, WriteFn write) {
  if (!args.has(name)) return true;
  const std::string& path = args.get(name);
  std::ofstream file(path);
  if (!file) {
    err << "error: cannot open output file '" << path << "'\n";
    return false;
  }
  write(file);
  return true;
}

int cmd_market_bench(const Invocation& args, std::istream&, std::ostream& out,
                     std::ostream& err) {
  ThroughputConfig config;
  config.clients = get_size(args, "clients");
  config.rounds = get_size(args, "rounds");
  config.shards = get_size(args, "shards");
  config.threads = get_size(args, "threads");
  config.drop_probability = args.get_real("drop");
  config.duplicate_probability = args.get_real("duplicate");
  config.seed = get_seed(args);
  const Money threshold = money(args.get_real("threshold"));
  config.telemetry.wallclock = args.flag("trace-wallclock");
  config.telemetry.enabled = !args.flag("no-telemetry");
  if (!config.telemetry.enabled &&
      (args.has("metrics-out") || args.has("metrics-json") ||
       args.has("trace-out") || config.telemetry.wallclock)) {
    return usage_error(err,
                       "--no-telemetry contradicts the other telemetry flags");
  }
  if (config.threads > config.shards) {
    return usage_error(err,
                       "--threads must not exceed --shards (a shard is owned "
                       "by one worker; 0 = hardware concurrency)");
  }

  // Same caveat the bench embeds in its JSON `warnings` field: wall-time
  // numbers from an oversubscribed host are not parallel speedup.
  // --threads 0 resolves to hardware concurrency, so it never
  // oversubscribes.
  const std::size_t num_cpus = resolve_threads(0);
  if (config.threads > num_cpus) {
    err << "warning: " << config.threads << " worker threads on a "
        << num_cpus
        << "-CPU host; throughput measures oversubscription, not parallel "
           "speedup\n";
  }

  const TpdProtocol tpd(threshold);
  const auto start = std::chrono::steady_clock::now();
  const ThroughputResult result = run_throughput_session(tpd, config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::size_t messages = result.bus.delivered + result.bus.dropped +
                               result.bus.dead_lettered;
  out << "clients: " << result.clients << "  rounds: " << result.rounds
      << "  shards: " << result.shards << "  threads: " << result.threads
      << '\n'
      << "messages: " << messages << " (sent " << result.bus.sent
      << ", duplicated " << result.bus.duplicated << ", dropped "
      << result.bus.dropped << ", dead-lettered " << result.bus.dead_lettered
      << ", forwarded " << result.bus.forwarded << ")\n";
  for (std::size_t s = 0; s < result.shard_bus.size(); ++s) {
    const BusStats& shard = result.shard_bus[s];
    out << "  shard " << s << ": delivered " << shard.delivered
        << ", dead-lettered " << shard.dead_lettered << ", dropped "
        << shard.dropped << '\n';
  }
  out << "bids accepted: " << result.bids_accepted
      << "  trades: " << result.trades << '\n'
      << "book: " << result.book.inserts << " inserts, "
      << result.book.entries_shifted << " entries shifted, "
      << result.book.chunk_splits << " chunk splits, "
      << result.book.sorts_at_close << " sorts at close\n"
      << "epochs: " << result.epoch.epochs << "  barrier crossings: "
      << result.epoch.barriers << '\n'
      << "sim time: " << result.sim_time.micros << " us  wall: "
      << format_fixed(elapsed, 3) << " s\n"
      << "throughput: "
      << format_fixed(static_cast<double>(messages) / elapsed, 0)
      << " msg/s, "
      << format_fixed(static_cast<double>(result.bids_accepted) / elapsed, 0)
      << " bids/s, "
      << format_fixed(static_cast<double>(result.rounds) / elapsed, 2)
      << " rounds/s\n";

  const bool written =
      write_file(args, "metrics-out", err,
                 [&result](std::ostream& file) {
                   obs::write_prometheus(file, result.metrics);
                 }) &&
      write_file(args, "metrics-json", err,
                 [&result](std::ostream& file) {
                   obs::write_json_snapshot(file, result.metrics);
                 }) &&
      write_file(args, "trace-out", err, [&result](std::ostream& file) {
        obs::write_chrome_trace(file, result.trace);
      });
  return written ? 0 : 1;
}

int cmd_metrics_dump(const Invocation& args, std::istream&, std::ostream& out,
                     std::ostream& err) {
  // Two modes: run a small deterministic session and dump its merged
  // snapshot (the CI smoke step greps this), or --in FILE to parse an
  // existing Prometheus text file back into a snapshot — validating it
  // and optionally reformatting.  Missing or malformed input exits 1.
  ThroughputConfig config;
  config.clients = get_size(args, "clients");
  config.rounds = get_size(args, "rounds");
  config.shards = get_size(args, "shards");
  config.threads = get_size(args, "threads");
  config.seed = get_seed(args);
  const std::string& format = args.get("format");

  obs::MetricsSnapshot snapshot;
  if (args.has("in")) {
    const std::string& in_path = args.get("in");
    std::ifstream file(in_path);
    if (!file) {
      err << "error: cannot open metrics file '" << in_path << "'\n";
      return 1;
    }
    try {
      snapshot = ops::parse_prometheus_text(file);
    } catch (const std::exception& e) {
      err << "error: " << e.what() << '\n';
      return 1;
    }
  } else {
    const TpdProtocol tpd(money(args.get_real("threshold")));
    snapshot = run_throughput_session(tpd, config).metrics;
  }

  if (args.flag("quiet")) return 0;
  if (format == "json") {
    obs::write_json_snapshot(out, snapshot);
    out << '\n';
  } else if (format == "table") {
    for (const std::string& line : ops::render_metrics_table(snapshot)) {
      out << line << '\n';
    }
  } else {
    obs::write_prometheus(out, snapshot);
  }
  return 0;
}

int cmd_console(const Invocation& args, std::istream& in, std::ostream& out,
                std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  ops::ConsoleConfig config;
  config.clients = get_size(args, "clients");
  config.shards = get_size(args, "shards");
  config.threads = get_size(args, "threads");
  config.seed = get_seed(args);
  config.max_rounds = get_size(args, "rounds-budget");
  config.drop_probability = args.get_real("drop");
  config.duplicate_probability = args.get_real("duplicate");
  config.telemetry.enabled = !args.flag("no-telemetry");
  const bool json_replies = args.flag("json");
  if (args.has("slo-file")) {
    const std::string& slo_path = args.get("slo-file");
    std::ifstream file(slo_path);
    if (!file) {
      err << "error: cannot open SLO file '" << slo_path << "'\n";
      return 1;
    }
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty() || line[0] == '#') continue;
      config.slo_rules.push_back(line);
    }
  }

  ops::ConsoleSession session(*protocol, config);

  const bool script_mode = args.has("script");
  std::ifstream script;
  if (script_mode) {
    script.open(args.get("script"));
    if (!script) {
      err << "error: cannot open script '" << args.get("script") << "'\n";
      return 1;
    }
  }
  std::istream& source = script_mode ? static_cast<std::istream&>(script) : in;

  if (!script_mode) {
    out << "fnda console — 'help' lists commands, 'quit' leaves\n";
  }
  std::string line;
  while (!session.done()) {
    if (script_mode) {
      if (!std::getline(source, line)) break;
      out << "> " << line << '\n';
    } else {
      out << "fnda> " << std::flush;
      if (!std::getline(source, line)) break;
    }
    const ops::Reply reply = session.execute(line);
    const std::string rendered = json_replies ? reply.json : reply.text();
    if (!rendered.empty()) out << rendered << '\n';
    if (!reply.ok && script_mode) {
      // Batch scripts are CI material: the first failing command fails
      // the run, like `sh -e`.
      return 1;
    }
  }
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  using Handler = int (*)(const Invocation&, std::istream&, std::ostream&,
                          std::ostream&);
  int exit_code = 0;
  ops::CommandTable table;
  const auto add = [&](std::string name, std::string help,
                       std::vector<ParamSpec> options,
                       std::vector<std::string> flags, Handler handler) {
    ops::CommandSpec spec;
    spec.name = std::move(name);
    spec.help = std::move(help);
    spec.flags = std::move(flags);
    spec.options = std::move(options);
    spec.handler = [&, handler](const Invocation& invocation) {
      exit_code = handler(invocation, in, out, err);
      return ops::Reply{};
    };
    table.add(std::move(spec));
  };
  const auto threads = [](std::string help) {
    return ParamSpec::integer("threads", 0,
                              static_cast<std::int64_t>(kMaxThreads),
                              std::move(help))
        .optional("1");
  };
  const ParamSpec max_declarations =
      count("max-declarations", 0, 2, "declarations per deviation");
  const ParamSpec manipulator = ParamSpec::string(
      "manipulator", "audited trader as side:index, e.g. buyer:0 or seller:2");

  add("clear", "clear one book from CSV (side,identity,value)",
      protocol_options(
          {book_option(),
           ParamSpec::choice("format", {"text", "csv", "json"},
                             "output format")
               .optional("text"),
           seed_option(1)}),
      {}, cmd_clear);
  add("clear-multi",
      "Section 9 multi-unit TPD from CSV (side,identity,schedule; "
      "schedule = v1;v2;...)",
      {money_option("threshold", "50", "threshold price r"), book_option(),
       ParamSpec::choice("format", {"text", "csv"}, "output format")
           .optional("text"),
       seed_option(1)},
      {}, cmd_clear_multi);
  add("simulate", "Monte-Carlo surplus of one protocol",
      protocol_options(
          {count("buyers", 0, 50, "buyers per instance"),
           count("sellers", 0, 50, "sellers per instance"),
           ParamSpec::integer("binomial", 0, std::numeric_limits<int>::max(),
                              "draw m,n ~ B(N, 0.5) instead (0 = off)")
               .optional("0"),
           count("instances", 1, 1000, "instances to draw"),
           money_option("low", "0", "lowest value"),
           money_option("high", "100", "highest value"),
           threads("workers (0 = hardware concurrency)"),
           seed_option(1)}),
      {}, cmd_simulate);
  add("attack", "exhaustive deviation search for one participant",
      protocol_options({book_option(), manipulator, max_declarations}), {},
      cmd_attack);
  add("attack-search",
      "the parallel pruned search engine with full coverage counters "
      "(pruning, fast positions, slack); identical result at every --threads",
      protocol_options(
          {book_option(), manipulator, max_declarations,
           threads("search workers (0 = hardware concurrency)"),
           count("replicates", 1, 1, "clears averaged per candidate"),
           seed_option(0x5eed),
           toggle("prune", true, "bound-based pruning"),
           toggle("serial", false, "run the serial reference oracle instead"),
           toggle("json", false, "machine-readable result, stats, timings"),
           path_option("metrics-out", "Prometheus text file")}),
      {}, cmd_attack_search);
  add("dynamics", "iterated best response over the book's traders",
      protocol_options({book_option(), count("sweeps", 0, 6, "sweep budget"),
                        max_declarations}),
      {}, cmd_dynamics);
  add("sweep", "TPD threshold sweep (Figure 1 series, CSV)",
      {count("participants", 0, 500, "buyers and sellers per instance"),
       count("step", 1, 5, "threshold step over 0..100"),
       count("instances", 1, 200, "instances per threshold"), seed_option(1)},
      {}, cmd_sweep);
  add("optimize", "find the best threshold for a workload",
      {count("buyers", 0, 50, "buyers per instance"),
       count("sellers", 0, 50, "sellers per instance"),
       money_option("low", "0", "lowest value"),
       money_option("high", "100", "highest value"),
       money_option("lo", "", "search lower end (default: --low)"),
       money_option("hi", "", "search upper end (default: --high)"),
       count("instances", 1, 200, "instances per evaluation"),
       seed_option(7),
       ParamSpec::choice("objective", {"total", "traders"},
                         "surplus to maximize")
           .optional("total")},
      {}, cmd_optimize);
  add("market-bench",
      "ZI-trader session on the sharded exchange: live-book work counters "
      "and epoch barrier crossings (scaling gates live in "
      "bench/market_throughput)",
      {count("clients", 1, 1000, "traders"), count("rounds", 1, 3, "rounds"),
       count("shards", 1, 4, "shards"),
       threads("workers, <= --shards (0 = hardware concurrency)"),
       probability("drop", "message drop probability"),
       probability("duplicate", "message duplication probability"),
       money_option("threshold", "50", "TPD threshold price r"),
       seed_option(1),
       path_option("metrics-out", "Prometheus text file"),
       path_option("metrics-json", "JSON metrics snapshot file"),
       path_option("trace-out", "Chrome trace file")},
      {"trace-wallclock", "no-telemetry"}, cmd_market_bench);
  add("metrics-dump",
      "run a small session and dump its metrics to stdout, or parse a "
      "Prometheus file given by --in (exit 1 on missing/malformed input)",
      {ParamSpec::choice("format", {"prom", "json", "table"}, "output format")
           .optional("prom"),
       count("clients", 1, 64, "traders"), count("rounds", 1, 2, "rounds"),
       count("shards", 1, 2, "shards"),
       threads("workers (0 = hardware concurrency)"),
       money_option("threshold", "50", "TPD threshold price r"),
       seed_option(1),
       path_option("in", "Prometheus text file to parse instead")},
      {"quiet"}, cmd_metrics_dump);
  add("console",
      "live operations console over a running exchange: REPL on stdin, or "
      "--script batch (first error exits 1); byte-identical transcript at "
      "every --threads",
      protocol_options(
          {path_option("script", "command batch file"),
           count("clients", 1, 64, "traders"),
           count("shards", 1, 2, "shards"),
           threads("workers (0 = hardware concurrency)"), seed_option(42),
           count("rounds-budget", 0, 1024, "rounds the session may run"),
           probability("drop", "message drop probability"),
           probability("duplicate", "message duplication probability"),
           path_option("slo-file", "SLO rules, one per line")}),
      {"json", "no-telemetry"}, cmd_console);

  try {
    const ops::Reply reply =
        table.dispatch(args.empty() ? std::vector<std::string>{"help"} : args);
    if (!reply.ok) {
      err << reply.text() << "\nrun 'fnda help' for usage\n";
      return 2;
    }
    if (!reply.lines.empty()) out << reply.text() << '\n';
    return exit_code;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace fnda
