// Snapshot exposition: Prometheus text format and a JSON document.
//
// Both writers emit only integers (counts, micro-unit sums, bucket
// bounds), never floating point, so the byte stream is a pure function of
// the deterministic snapshot — the property the threads-1-vs-8
// bit-identity tests pin.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace fnda::obs {

/// Escapes a Prometheus label value per the exposition format: backslash,
/// double quote, and newline get backslash escapes.  The built-in writers
/// only ever emit integer `le` bounds (escape-free by construction), but
/// the ops layer emits operator-supplied strings through this.
std::string prometheus_escape_label(std::string_view value);

/// Escapes a JSON string body (RFC 8259, without the surrounding quotes):
/// double quote, backslash, \n, \r and \t get short escapes; every other
/// control byte becomes \u00XX.  The one escaper behind every JSON writer
/// in the tree (console replies, audit dumps, Chrome traces, CLI reports).
std::string json_escape(std::string_view text);

/// Quantile readout from a histogram snapshot value: the upper bound of
/// the bucket holding the rank-ceil(q*count) sample (nearest-rank, so a
/// sample recorded exactly at a bucket bound reads back exactly).  q >= 1
/// returns the recorded max; an empty histogram (or a scalar kind)
/// returns 0.  Deterministic: pure function of the snapshot.
std::uint64_t snapshot_quantile(const MetricValue& value, double q);

/// Prometheus text exposition (# TYPE lines, histograms as cumulative
/// `le` buckets — only non-empty buckets are written, plus `+Inf`).
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// The same snapshot as one JSON object:
/// {"metrics":{"name":{"type":"counter","value":N}, ...}}.  Histograms
/// carry count/sum/max plus parallel bound/count arrays.
void write_json_snapshot(std::ostream& os, const MetricsSnapshot& snapshot);

/// Convenience: write_prometheus into a string (tests, digests).
std::string prometheus_text(const MetricsSnapshot& snapshot);

}  // namespace fnda::obs
