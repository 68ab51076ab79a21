#include "ops/format.h"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "obs/export.h"
#include "ops/command.h"

namespace fnda::ops {
namespace {

std::string pad(std::string text, std::size_t width) {
  while (text.size() < width) text += ' ';
  return text;
}

[[noreturn]] void malformed(std::size_t line_number, const std::string& what) {
  throw std::runtime_error("prometheus parse error at line " +
                           std::to_string(line_number) + ": " + what);
}

}  // namespace

std::vector<std::string> render_metrics_table(
    const obs::MetricsSnapshot& snapshot) {
  std::size_t name_width = 4;  // "name"
  for (const auto& [name, value] : snapshot.metrics) {
    name_width = std::max(name_width, name.size());
  }
  std::vector<std::string> lines;
  lines.reserve(snapshot.metrics.size() + 1);
  lines.push_back(pad("name", name_width) + "  type       value");
  for (const auto& [name, value] : snapshot.metrics) {
    std::string rendered;
    switch (value.kind) {
      case obs::MetricKind::kCounter:
        rendered = "counter    " + std::to_string(value.counter);
        break;
      case obs::MetricKind::kGauge:
        rendered = "gauge      " + std::to_string(value.gauge);
        break;
      case obs::MetricKind::kHistogram:
        rendered = "histogram  count=" + std::to_string(value.hist_count) +
                   " sum=" + std::to_string(value.hist_sum) +
                   " p50=" + std::to_string(obs::snapshot_quantile(value, 0.5)) +
                   " p99=" +
                   std::to_string(obs::snapshot_quantile(value, 0.99)) +
                   " max=" + std::to_string(value.hist_max);
        break;
    }
    lines.push_back(pad(name, name_width) + "  " + rendered);
  }
  return lines;
}

std::vector<std::string> render_histogram(const std::string& name,
                                          const obs::MetricValue& value) {
  std::vector<std::string> lines;
  lines.push_back(name + ":");
  lines.push_back("  count " + std::to_string(value.hist_count));
  lines.push_back("  sum   " + std::to_string(value.hist_sum));
  const std::uint64_t mean =
      value.hist_count == 0 ? 0 : value.hist_sum / value.hist_count;
  lines.push_back("  mean  " + std::to_string(mean));
  lines.push_back("  p50   " +
                  std::to_string(obs::snapshot_quantile(value, 0.5)));
  lines.push_back("  p90   " +
                  std::to_string(obs::snapshot_quantile(value, 0.9)));
  lines.push_back("  p99   " +
                  std::to_string(obs::snapshot_quantile(value, 0.99)));
  lines.push_back("  p999  " +
                  std::to_string(obs::snapshot_quantile(value, 0.999)));
  lines.push_back("  max   " + std::to_string(value.hist_max));
  for (const auto& [bucket, count] : value.buckets) {
    lines.push_back(
        "  le " +
        std::to_string(obs::Histogram::bucket_upper_bound(bucket)) + ": " +
        std::to_string(count));
  }
  return lines;
}

obs::MetricsSnapshot parse_prometheus_text(std::istream& in) {
  struct PendingHistogram {
    std::uint64_t last_cumulative = 0;
    bool saw_inf = false;
    std::uint64_t inf_count = 0;
    bool saw_sum = false;
    bool saw_count = false;
  };

  obs::MetricsSnapshot snapshot;
  std::vector<std::pair<std::string, obs::MetricKind>> declared;
  std::vector<std::pair<std::string, PendingHistogram>> pending;

  auto declared_kind = [&](const std::string& name) -> obs::MetricKind* {
    for (auto& [declared_name, kind] : declared) {
      if (declared_name == name) return &kind;
    }
    return nullptr;
  };
  auto value_of = [&](const std::string& name) -> obs::MetricValue* {
    for (auto& [metric_name, value] : snapshot.metrics) {
      if (metric_name == name) return &value;
    }
    return nullptr;
  };
  auto pending_of = [&](const std::string& name) -> PendingHistogram& {
    for (auto& [pending_name, state] : pending) {
      if (pending_name == name) return state;
    }
    pending.emplace_back(name, PendingHistogram{});
    return pending.back().second;
  };

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only `# TYPE name kind` matters; HELP and comments pass through.
      const std::vector<std::string> words = [&] {
        std::vector<std::string> out;
        std::string word;
        for (const char c : line) {
          if (c == ' ') {
            if (!word.empty()) out.push_back(std::move(word));
            word.clear();
          } else {
            word += c;
          }
        }
        if (!word.empty()) out.push_back(std::move(word));
        return out;
      }();
      if (words.size() >= 2 && words[1] == "TYPE") {
        if (words.size() != 4) malformed(line_number, "bad TYPE comment");
        obs::MetricKind kind;
        if (words[3] == "counter") {
          kind = obs::MetricKind::kCounter;
        } else if (words[3] == "gauge") {
          kind = obs::MetricKind::kGauge;
        } else if (words[3] == "histogram") {
          kind = obs::MetricKind::kHistogram;
        } else {
          malformed(line_number, "unknown metric type '" + words[3] + "'");
        }
        if (declared_kind(words[2]) != nullptr) {
          malformed(line_number, "duplicate TYPE for '" + words[2] + "'");
        }
        declared.emplace_back(words[2], kind);
        if (kind != obs::MetricKind::kHistogram) {
          obs::MetricValue value;
          value.kind = kind;
          snapshot.metrics.emplace_back(words[2], value);
        } else {
          obs::MetricValue value;
          value.kind = obs::MetricKind::kHistogram;
          snapshot.metrics.emplace_back(words[2], value);
          pending_of(words[2]);
        }
      }
      continue;
    }

    // Sample line: `name[{labels}] value`.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      malformed(line_number, "expected 'name value'");
    }
    std::string key = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);

    // Peel the {le="..."} label set, if any.
    std::string le;
    const std::size_t brace = key.find('{');
    if (brace != std::string::npos) {
      if (key.back() != '}') malformed(line_number, "unterminated label set");
      const std::string labels = key.substr(brace + 1,
                                            key.size() - brace - 2);
      key = key.substr(0, brace);
      constexpr std::string_view kLe = "le=\"";
      if (labels.size() < kLe.size() + 1 ||
          labels.substr(0, kLe.size()) != kLe || labels.back() != '"') {
        malformed(line_number, "unsupported label set '" + labels + "'");
      }
      le = labels.substr(kLe.size(), labels.size() - kLe.size() - 1);
    }

    // Histogram series end in _bucket/_sum/_count on a declared histogram.
    auto strip_suffix = [&](std::string_view suffix,
                            std::string* base) -> bool {
      if (key.size() <= suffix.size()) return false;
      if (std::string_view(key).substr(key.size() - suffix.size()) != suffix) {
        return false;
      }
      *base = key.substr(0, key.size() - suffix.size());
      obs::MetricKind* kind = declared_kind(*base);
      return kind != nullptr && *kind == obs::MetricKind::kHistogram;
    };

    std::string base;
    if (strip_suffix("_bucket", &base)) {
      obs::MetricValue* value = value_of(base);
      PendingHistogram& state = pending_of(base);
      std::uint64_t cumulative = 0;
      if (!parse_number(value_text, &cumulative)) {
        malformed(line_number, "bad bucket count '" + value_text + "'");
      }
      if (le == "+Inf") {
        state.saw_inf = true;
        state.inf_count = cumulative;
        continue;
      }
      std::uint64_t bound = 0;
      if (!parse_number(le, &bound)) {
        malformed(line_number, "bad le bound '" + le + "'");
      }
      if (cumulative < state.last_cumulative) {
        malformed(line_number, "bucket counts must be cumulative");
      }
      const std::uint64_t delta = cumulative - state.last_cumulative;
      state.last_cumulative = cumulative;
      if (delta > 0) {
        const std::size_t bucket = obs::Histogram::bucket_index(bound);
        if (obs::Histogram::bucket_upper_bound(bucket) != bound) {
          malformed(line_number,
                    "le bound " + le + " is not a native bucket bound");
        }
        value->buckets.emplace_back(static_cast<std::uint32_t>(bucket), delta);
      }
      continue;
    }
    if (strip_suffix("_sum", &base)) {
      obs::MetricValue* value = value_of(base);
      if (!parse_number(value_text, &value->hist_sum)) {
        malformed(line_number, "bad histogram sum '" + value_text + "'");
      }
      pending_of(base).saw_sum = true;
      continue;
    }
    if (strip_suffix("_count", &base)) {
      obs::MetricValue* value = value_of(base);
      if (!parse_number(value_text, &value->hist_count)) {
        malformed(line_number, "bad histogram count '" + value_text + "'");
      }
      pending_of(base).saw_count = true;
      continue;
    }

    obs::MetricKind* kind = declared_kind(key);
    if (kind == nullptr) {
      malformed(line_number, "sample for undeclared metric '" + key + "'");
    }
    obs::MetricValue* value = value_of(key);
    switch (*kind) {
      case obs::MetricKind::kCounter:
        if (!parse_number(value_text, &value->counter)) {
          malformed(line_number, "bad counter value '" + value_text + "'");
        }
        break;
      case obs::MetricKind::kGauge:
        if (!parse_number(value_text, &value->gauge)) {
          malformed(line_number, "bad gauge value '" + value_text + "'");
        }
        break;
      case obs::MetricKind::kHistogram:
        malformed(line_number,
                  "bare sample for histogram '" + key +
                      "' (expected _bucket/_sum/_count series)");
    }
  }

  for (const auto& [name, state] : pending) {
    obs::MetricValue* value = value_of(name);
    if (!state.saw_count) {
      throw std::runtime_error("prometheus parse error: histogram '" + name +
                               "' has no _count sample");
    }
    if (state.saw_inf && state.inf_count != value->hist_count) {
      throw std::runtime_error("prometheus parse error: histogram '" + name +
                               "' +Inf bucket disagrees with _count");
    }
  }

  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

}  // namespace fnda::ops
