// Shared helpers for the table/figure reproduction binaries.
//
// Each bench prints the paper's reported numbers next to the measured
// ones so the reproduction quality is visible at a glance; EXPERIMENTS.md
// records a captured run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "sim/experiment.h"
#include "sim/table.h"

namespace fnda::bench {

/// Paper row for Tables 1/2: surplus and (ratio) for four columns.
struct PaperRow {
  int size;  // n=m for Table 1, N for Table 2
  double tpd, tpd_ratio;
  double tpd_ex, tpd_ex_ratio;
  double pmd, pmd_ratio;
  double pmd_ex, pmd_ex_ratio;
};

inline std::string measured_cell(const ComparisonResult& result,
                                 const std::string& name, bool except) {
  const ProtocolSummary& summary = result.summary(name);
  const double value =
      except ? summary.except_auctioneer.mean() : summary.total.mean();
  const double ratio = except ? result.ratio_except_auctioneer(name)
                              : result.ratio_total(name);
  return format_with_ratio(value, ratio);
}

inline std::string paper_cell(double value, double ratio_percent) {
  return format_fixed(value, 1) + " (" + format_fixed(ratio_percent, 1) +
         "%)";
}

/// One benchmark record for the BENCH_*.json files.  The emitted document
/// follows the google-benchmark JSON layout (context block + benchmarks
/// array) so both BENCH files in the repo share one shape; records here
/// carry only the fields the repo's reports read, plus free-form
/// counters.
struct JsonBenchRecord {
  std::string name;
  double real_time_ns = 0.0;
  std::uint64_t iterations = 1;
  double items_per_second = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  /// Structured caveats about the measurement (e.g. the host had fewer
  /// CPUs than worker threads).  Emitted as a `"warnings": [...]` array
  /// so reports cannot mistake a compromised row for a clean one.
  std::vector<std::string> warnings;
};

/// JSON string escaping for warning and compiler text.
using obs::json_escape;

/// The library build flavour baked into this binary.  Stamped into the
/// context block AND every record: a single row pasted into a report must
/// carry its own provenance, because a debug-built measurement is not a
/// measurement.
inline const char* library_build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Git revision the binary was configured from (captured at CMake
/// configure time; "unknown" outside a work tree or for stale builds
/// whose configure predates the last commit).
inline const char* build_git_sha() {
#ifdef FNDA_GIT_SHA
  return FNDA_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Compiler family + full version string the binary was built with.
inline std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

inline void write_benchmark_json(std::ostream& os,
                                 const std::string& executable,
                                 const std::vector<JsonBenchRecord>& records) {
  char date[64] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm tm_buf{}; localtime_r(&now, &tm_buf) != nullptr) {
    std::strftime(date, sizeof date, "%FT%T%z", &tm_buf);
  }
  // Per-record warning lists with build-flavour caveats appended; the
  // distinct set (first-seen order) is also surfaced once in the context
  // block so a reader skimming the document head sees every caveat
  // without scanning the records.  Records keep their own tags: a row
  // pasted into a report still carries its provenance.
  std::vector<std::vector<std::string>> record_warnings(records.size());
  std::vector<std::string> distinct_warnings;
  for (std::size_t i = 0; i < records.size(); ++i) {
    record_warnings[i] = records[i].warnings;
#ifndef NDEBUG
    record_warnings[i].push_back(
        "library built without NDEBUG (debug): timings are not "
        "representative, regenerate from a Release build");
#endif
    for (const std::string& warning : record_warnings[i]) {
      if (std::find(distinct_warnings.begin(), distinct_warnings.end(),
                    warning) == distinct_warnings.end()) {
        distinct_warnings.push_back(warning);
      }
    }
  }
  os << "{\n  \"context\": {\n"
     << "    \"date\": \"" << date << "\",\n"
     << "    \"executable\": \"" << executable << "\",\n"
     << "    \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n"
     << "    \"library_build_type\": \"" << library_build_type() << "\",\n"
     << "    \"git_sha\": \"" << build_git_sha() << "\",\n"
     << "    \"compiler\": \"" << json_escape(compiler_version()) << '"';
  if (!distinct_warnings.empty()) {
    os << ",\n    \"warnings\": [";
    for (std::size_t w = 0; w < distinct_warnings.size(); ++w) {
      os << (w > 0 ? ", " : "") << '"' << json_escape(distinct_warnings[w])
         << '"';
    }
    os << ']';
  }
  os << "\n  },\n  \"benchmarks\": [\n";
  os << std::setprecision(15);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonBenchRecord& r = records[i];
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"run_type\": \"iteration\",\n"
       << "      \"iterations\": " << r.iterations << ",\n"
       << "      \"real_time\": " << r.real_time_ns << ",\n"
       << "      \"time_unit\": \"ns\",\n"
       << "      \"items_per_second\": " << r.items_per_second;
    // Every record repeats num_cpus and the build flavour so a single row
    // pasted into a report still carries the host and build shape (the
    // context block is easy to lose).
    os << ",\n      \"num_cpus\": " << std::thread::hardware_concurrency();
    os << ",\n      \"library_build_type\": \"" << library_build_type()
       << '"';
    os << ",\n      \"git_sha\": \"" << build_git_sha() << '"';
    os << ",\n      \"compiler\": \"" << json_escape(compiler_version())
       << '"';
    for (const auto& [key, value] : r.counters) {
      os << ",\n      \"" << key << "\": " << value;
    }
    // A debug build invalidates every timing in the file; say so on every
    // record, in the same structured shape as measurement caveats.
    const std::vector<std::string>& warnings = record_warnings[i];
    if (!warnings.empty()) {
      os << ",\n      \"warnings\": [";
      for (std::size_t w = 0; w < warnings.size(); ++w) {
        os << (w > 0 ? ", " : "") << '"' << json_escape(warnings[w]) << '"';
      }
      os << ']';
    }
    os << "\n    }" << (i + 1 < records.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

inline bool write_benchmark_json_file(
    const std::string& path, const std::string& executable,
    const std::vector<JsonBenchRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  write_benchmark_json(out, executable, records);
  return static_cast<bool>(out);
}

/// Emits one measured-vs-paper block for a Table 1/2 style experiment.
inline void print_surplus_table(const std::string& title,
                                const std::string& size_label,
                                const std::vector<PaperRow>& paper,
                                const std::vector<ComparisonResult>& results) {
  TextTable table({size_label, "TPD", "TPD ex-auct", "PMD", "PMD ex-auct",
                   "source"});
  for (std::size_t row = 0; row < paper.size(); ++row) {
    const PaperRow& p = paper[row];
    const ComparisonResult& r = results[row];
    table.add_row({std::to_string(p.size),
                   measured_cell(r, "tpd", false),
                   measured_cell(r, "tpd", true),
                   measured_cell(r, "pmd", false),
                   measured_cell(r, "pmd", true), "measured"});
    table.add_row({std::to_string(p.size), paper_cell(p.tpd, p.tpd_ratio),
                   paper_cell(p.tpd_ex, p.tpd_ex_ratio),
                   paper_cell(p.pmd, p.pmd_ratio),
                   paper_cell(p.pmd_ex, p.pmd_ex_ratio), "paper"});
  }
  std::cout << "== " << title << " ==\n" << table << '\n';
}

}  // namespace fnda::bench
