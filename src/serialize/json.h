// Minimal JSON writer.
//
// Hand-rolled because the only need is machine-readable output from the
// CLI and audit dumps; there is no JSON *parsing* anywhere in the library.
// The writer produces compact, valid JSON with correctly escaped strings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/outcome.h"
#include "market/audit.h"
#include "market/settlement.h"

namespace fnda {

/// Streaming JSON builder.  Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("trades"); w.value(3);
///   w.key("fills"); w.begin_array(); ... w.end_array();
///   w.end_object();
///   std::string out = w.str();
/// The builder inserts commas automatically; mismatched begin/end is the
/// caller's bug and trips an assertion-style exception.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& name);

  void value(const std::string& text);
  void value(const char* text) { value(std::string(text)); }
  void value(std::int64_t number);
  void value(std::uint64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void value(double number);
  void value(bool flag);
  void null();

  /// The finished document.  Throws std::logic_error if containers are
  /// still open.
  std::string str() const;

 private:
  void prefix();

  std::string out_;
  // Stack of container states: true = expecting a key next (object),
  // false = array.  `first_` tracks comma insertion per level.
  std::vector<bool> is_object_;
  std::vector<bool> first_;
  bool pending_key_ = false;
};

/// Outcome -> JSON: {"trades":N,"auctioneer_revenue":x,"fills":[...]}
std::string outcome_to_json(const Outcome& outcome);

/// Audit log -> JSON array of records.
std::string audit_to_json(const AuditLog& log);

/// One exchange round -> JSON: outcome + settlement summary.
std::string settlement_to_json(const SettlementReport& report);

}  // namespace fnda
