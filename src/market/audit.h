// Append-only audit log.
//
// Every externally visible event at the exchange — round lifecycle, bid
// acceptance/rejection, clears, deliveries, confiscations — is recorded
// with its simulated timestamp.  The log supports filtering for tests and
// a compact dump for the examples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "market/clock.h"

namespace fnda {

enum class AuditKind {
  kRoundOpened,
  kBidAccepted,
  kBidRejected,
  kRoundCleared,
  kDelivery,
  kDeliveryFailed,
  kDepositConfiscated,
  kDepositRefunded,
};

const char* to_string(AuditKind kind);

struct AuditRecord {
  SimTime at;
  RoundId round;
  AuditKind kind;
  std::string detail;
};

namespace detail {

// Each overload appends exactly what the corresponding operator<< would
// stream (ids are prefix + decimal, Money is Money::to_string), so detail
// lines are byte-identical to an ostringstream without paying its locale
// machinery per call.
inline void append_part(std::string& out, char c) { out += c; }
inline void append_part(std::string& out, const char* s) { out += s; }
inline void append_part(std::string& out, const std::string& s) { out += s; }
inline void append_part(std::string& out, Money m) { out += m.to_string(); }
inline void append_part(std::string& out, std::size_t v) {
  out += std::to_string(v);
}
template <typename Tag>
void append_part(std::string& out, TypedId<Tag> id) {
  out += Tag::prefix();
  out += std::to_string(id.value());
}

}  // namespace detail

/// Concatenates every argument into an audit-record detail line.  Detail
/// formatting runs once per accepted/rejected bid, squarely on the
/// submission hot path.
template <typename... Parts>
std::string audit_detail(const Parts&... parts) {
  std::string out;
  (detail::append_part(out, parts), ...);
  return out;
}

class AuditLog {
 public:
  void append(SimTime at, RoundId round, AuditKind kind, std::string detail);

  const std::vector<AuditRecord>& records() const { return records_; }
  std::size_t count(AuditKind kind) const;
  std::vector<AuditRecord> for_round(RoundId round) const;

  /// One line per record: "t=12000 round-0 bid-accepted id-3 buyer@9".
  std::string dump() const;

 private:
  std::vector<AuditRecord> records_;
};

}  // namespace fnda
