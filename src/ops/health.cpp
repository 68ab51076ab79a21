#include "ops/health.h"

#include <cstdio>
#include <stdexcept>

#include "obs/export.h"
#include "ops/command.h"

namespace fnda::ops {
namespace {

void skip_spaces(std::string_view& text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
}

std::string_view take_word(std::string_view& text) {
  skip_spaces(text);
  std::size_t end = 0;
  while (end < text.size() && text[end] != ' ' && text[end] != '\t') ++end;
  const std::string_view word = text.substr(0, end);
  text.remove_prefix(end);
  return word;
}

bool valid_rule_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == ':')) {
      return false;
    }
  }
  return true;
}

/// Parses a non-negative decimal like "0.01" without strtod's locale
/// dependence: integer part plus up to 9 fractional digits.
bool parse_ratio(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::size_t dot = text.find('.');
  std::uint64_t whole = 0;
  std::uint64_t frac = 0;
  std::uint64_t scale = 1;
  const std::string_view whole_text =
      dot == std::string_view::npos ? text : text.substr(0, dot);
  if (!parse_number(whole_text, &whole)) return false;
  if (dot != std::string_view::npos) {
    const std::string_view frac_text = text.substr(dot + 1);
    if (frac_text.empty() || frac_text.size() > 9) return false;
    if (!parse_number(frac_text, &frac)) return false;
    for (std::size_t i = 0; i < frac_text.size(); ++i) scale *= 10;
  }
  *out = static_cast<double>(whole) +
         static_cast<double>(frac) / static_cast<double>(scale);
  return true;
}

/// Fixed-point ratio: numerator*1e6/denominator in integer arithmetic, so
/// evaluation never touches floating point (thread-count invariance needs
/// nothing stronger than integer determinism, but integers are simplest
/// to pin and render).
std::uint64_t ratio_micros(std::uint64_t numerator, std::uint64_t denominator) {
  if (denominator == 0) return 0;
  // Split to avoid overflow on huge counters: whole part + remainder part.
  const std::uint64_t whole = numerator / denominator;
  const std::uint64_t rem = numerator % denominator;
  return whole * 1'000'000ull + (rem * 1'000'000ull) / denominator;
}

std::string format_ratio(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

}  // namespace

bool SloRule::parse(std::string_view text, SloRule* out, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  SloRule rule;
  std::string_view rest = text;
  const std::string_view name = take_word(rest);
  if (!valid_rule_name(name)) {
    return fail("rule name must be [a-z0-9_]+, got '" + std::string(name) +
                "'");
  }
  rule.name = std::string(name);

  const std::string_view expr = take_word(rest);
  const std::size_t open = expr.find('(');
  if (open == std::string_view::npos || expr.back() != ')') {
    return fail("expected kind(metric), got '" + std::string(expr) + "'");
  }
  const std::string_view kind = expr.substr(0, open);
  const std::string_view args = expr.substr(open + 1,
                                            expr.size() - open - 2);
  if (kind == "max") {
    rule.kind = SloKind::kValueMax;
  } else if (kind == "p50") {
    rule.kind = SloKind::kQuantileMax;
    rule.quantile = 0.50;
  } else if (kind == "p90") {
    rule.kind = SloKind::kQuantileMax;
    rule.quantile = 0.90;
  } else if (kind == "p95") {
    rule.kind = SloKind::kQuantileMax;
    rule.quantile = 0.95;
  } else if (kind == "p99") {
    rule.kind = SloKind::kQuantileMax;
    rule.quantile = 0.99;
  } else if (kind == "p999") {
    rule.kind = SloKind::kQuantileMax;
    rule.quantile = 0.999;
  } else if (kind == "ratio") {
    rule.kind = SloKind::kRatioMax;
  } else {
    return fail("unknown rule kind '" + std::string(kind) +
                "' (max, p50..p999, ratio)");
  }

  if (rule.kind == SloKind::kRatioMax) {
    const std::size_t comma = args.find(',');
    if (comma == std::string_view::npos) {
      return fail("ratio needs two metrics: ratio(numerator,denominator)");
    }
    const std::string_view numerator = args.substr(0, comma);
    const std::string_view denominator = args.substr(comma + 1);
    if (!valid_metric_name(numerator) || !valid_metric_name(denominator)) {
      return fail("bad metric name in ratio(...)");
    }
    rule.metric = std::string(numerator);
    rule.denominator = std::string(denominator);
  } else {
    if (!valid_metric_name(args)) {
      return fail("bad metric name '" + std::string(args) + "'");
    }
    rule.metric = std::string(args);
  }

  const std::string_view op = take_word(rest);
  if (op != "<=") {
    return fail("expected '<=', got '" + std::string(op) + "'");
  }
  const std::string_view threshold = take_word(rest);
  if (rule.kind == SloKind::kRatioMax) {
    if (!parse_ratio(threshold, &rule.ratio_threshold)) {
      return fail("bad ratio threshold '" + std::string(threshold) + "'");
    }
  } else {
    if (!parse_number(threshold, &rule.threshold)) {
      return fail("bad integer threshold '" + std::string(threshold) + "'");
    }
  }
  skip_spaces(rest);
  if (!rest.empty()) {
    return fail("trailing input after threshold: '" + std::string(rest) + "'");
  }
  *out = rule;
  return true;
}

std::string SloRule::to_string() const {
  std::string kind_text;
  switch (kind) {
    case SloKind::kValueMax: kind_text = "max"; break;
    case SloKind::kQuantileMax:
      if (quantile == 0.50) kind_text = "p50";
      else if (quantile == 0.90) kind_text = "p90";
      else if (quantile == 0.95) kind_text = "p95";
      else if (quantile == 0.999) kind_text = "p999";
      else kind_text = "p99";
      break;
    case SloKind::kRatioMax: kind_text = "ratio"; break;
  }
  std::string args = metric;
  if (kind == SloKind::kRatioMax) args += ',' + denominator;
  std::string threshold_text = kind == SloKind::kRatioMax
                                   ? format_ratio(ratio_threshold)
                                   : std::to_string(threshold);
  return name + ' ' + kind_text + '(' + args + ") <= " + threshold_text;
}

HealthWatchdog::HealthWatchdog(std::vector<SloRule> rules) {
  states_.reserve(rules.size());
  for (SloRule& rule : rules) {
    RuleState state;
    state.rule = std::move(rule);
    states_.push_back(std::move(state));
  }
}

std::vector<SloRule> HealthWatchdog::default_rules() {
  const char* kDefaults[] = {
      "delivery_p99 p99(fnda_bus_delivery_latency_us) <= 250000",
      "attack_shed ratio(fnda_attack_shed_total,fnda_attack_searches_total) "
      "<= 0.5",
      "escrow_held max(fnda_escrow_held_micros) <= 10000000000000",
  };
  std::vector<SloRule> rules;
  for (const char* text : kDefaults) {
    SloRule rule;
    std::string error;
    if (!SloRule::parse(text, &rule, &error)) {
      throw std::logic_error("HealthWatchdog::default_rules: " + error);
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::size_t HealthWatchdog::evaluate(const obs::MetricsSnapshot& snapshot) {
  ++evaluations_;
  std::size_t breached_now = 0;
  for (RuleState& state : states_) {
    const SloRule& rule = state.rule;
    const obs::MetricValue* value = snapshot.find(rule.metric);
    state.last_present = value != nullptr;
    state.last_breached = false;
    if (value == nullptr) {
      state.last_value = 0;
      continue;
    }
    bool breached = false;
    switch (rule.kind) {
      case SloKind::kValueMax: {
        std::uint64_t observed = 0;
        switch (value->kind) {
          case obs::MetricKind::kCounter: observed = value->counter; break;
          case obs::MetricKind::kGauge:
            observed = value->gauge < 0
                           ? 0
                           : static_cast<std::uint64_t>(value->gauge);
            break;
          case obs::MetricKind::kHistogram: observed = value->hist_max; break;
        }
        state.last_value = observed;
        breached = observed > rule.threshold;
        break;
      }
      case SloKind::kQuantileMax: {
        const std::uint64_t observed =
            obs::snapshot_quantile(*value, rule.quantile);
        state.last_value = observed;
        breached = observed > rule.threshold;
        break;
      }
      case SloKind::kRatioMax: {
        const obs::MetricValue* denom = snapshot.find(rule.denominator);
        if (denom == nullptr) {
          state.last_present = false;
          state.last_value = 0;
          break;
        }
        const std::uint64_t observed =
            ratio_micros(value->counter, denom->counter);
        state.last_value = observed;
        const std::uint64_t ceiling = static_cast<std::uint64_t>(
            rule.ratio_threshold * 1'000'000.0 + 0.5);
        breached = observed > ceiling;
        break;
      }
    }
    if (breached) {
      state.last_breached = true;
      ++state.breaches;
      ++total_breaches_;
      ++breached_now;
    }
  }
  return breached_now;
}

void HealthWatchdog::bind_metrics(obs::MetricsRegistry& registry) {
  registry.counter_fn("fnda_health_evaluations_total",
                      [this] { return evaluations_; });
  registry.counter_fn("fnda_health_breaches_total",
                      [this] { return total_breaches_; });
  for (const RuleState& state : states_) {
    registry.counter_fn(
        "fnda_health_breach_" + state.rule.name + "_total",
        [&state] { return state.breaches; });
  }
}

}  // namespace fnda::ops
