#include "obs/export.h"

#include <cmath>
#include <ostream>
#include <sstream>

namespace fnda::obs {
namespace {

const char* type_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::uint64_t snapshot_quantile(const MetricValue& value, double q) {
  if (value.kind != MetricKind::kHistogram || value.hist_count == 0) return 0;
  if (q >= 1.0) return value.hist_max;
  if (q < 0.0) q = 0.0;
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count), floored at rank 1 so q = 0 reads the minimum bucket.
  const double exact = q * static_cast<double>(value.hist_count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(exact));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (const auto& [bucket, count] : value.buckets) {
    cumulative += count;
    if (cumulative >= rank) return Histogram::bucket_upper_bound(bucket);
  }
  return value.hist_max;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.metrics) {
    os << "# TYPE " << name << ' ' << type_name(value.kind) << '\n';
    switch (value.kind) {
      case MetricKind::kCounter:
        os << name << ' ' << value.counter << '\n';
        break;
      case MetricKind::kGauge:
        os << name << ' ' << value.gauge << '\n';
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (const auto& [bucket, count] : value.buckets) {
          cumulative += count;
          os << name << "_bucket{le=\""
             << Histogram::bucket_upper_bound(bucket) << "\"} " << cumulative
             << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << value.hist_count << '\n'
           << name << "_sum " << value.hist_sum << '\n'
           << name << "_count " << value.hist_count << '\n';
        break;
      }
    }
  }
}

void write_json_snapshot(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.metrics) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":{\"type\":\"" << type_name(value.kind) << '"';
    switch (value.kind) {
      case MetricKind::kCounter:
        os << ",\"value\":" << value.counter;
        break;
      case MetricKind::kGauge:
        os << ",\"value\":" << value.gauge;
        break;
      case MetricKind::kHistogram: {
        os << ",\"count\":" << value.hist_count << ",\"sum\":"
           << value.hist_sum << ",\"max\":" << value.hist_max
           << ",\"bounds\":[";
        bool first_bucket = true;
        for (const auto& [bucket, count] : value.buckets) {
          (void)count;
          if (!first_bucket) os << ',';
          first_bucket = false;
          os << Histogram::bucket_upper_bound(bucket);
        }
        os << "],\"counts\":[";
        first_bucket = true;
        for (const auto& [bucket, count] : value.buckets) {
          (void)bucket;
          if (!first_bucket) os << ',';
          first_bucket = false;
          os << count;
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "}}\n";
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_prometheus(os, snapshot);
  return os.str();
}

}  // namespace fnda::obs
