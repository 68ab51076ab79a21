// Append-only audit log.
//
// Every externally visible event at the exchange — round lifecycle, bid
// acceptance/rejection, clears, deliveries, confiscations, refunds — is
// recorded with its simulated timestamp.  Records are typed and heap-free:
// the detail text ("id-3 buyer@9: insufficient deposit") is produced only
// when something reads it (dump, console, JSON), never on the submission
// path.  The log supports filtering for tests and a compact dump for the
// examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "common/segmented.h"
#include "core/bid.h"
#include "market/clock.h"
#include "market/messages.h"

namespace fnda {

enum class AuditKind : std::uint8_t {
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

/// Typed payload of one audit record, formatted on read.  The kind picks
/// which fields are meaningful and the text they render to:
///
///  round-opened         —                       (empty)
///  bid-accepted         identity, side, amount  "id-3 buyer@9"
///  bid-rejected         ... and reason          "id-3 buyer@9: round not open"
///  round-cleared        count, amount           "3 trades, revenue 1.25"
///  delivery             identity, counterparty  "id-2 -> id-9"
///  delivery-failed      identity                "id-2"
///  deposit-confiscated  identity, amount        "id-2 10"
///  deposit-refunded     identity, amount        "id-2 10"
///
/// The kind is stored here and only here (AuditRecord::kind() reads it):
/// the payload renders without its record, so `size()` — the rendered
/// byte count — works on a detail alone.
class AuditDetail {
 public:
  /// A default-constructed detail is round_opened().
  AuditDetail() = default;

  static AuditDetail round_opened() { return {}; }
  static AuditDetail bid_accepted(IdentityId identity, Side side, Money value) {
    return {AuditKind::kBidAccepted, identity, 0, value, side,
            RejectReason::kNone};
  }
  static AuditDetail bid_rejected(IdentityId identity, Side side, Money value,
                                  RejectReason reason) {
    return {AuditKind::kBidRejected, identity, 0, value, side, reason};
  }
  static AuditDetail round_cleared(std::size_t trades, Money revenue) {
    return {AuditKind::kRoundCleared, IdentityId::invalid(), trades, revenue,
            Side::kBuyer, RejectReason::kNone};
  }
  static AuditDetail delivery(IdentityId seller, IdentityId buyer) {
    return {AuditKind::kDelivery, seller, buyer.value(), Money{},
            Side::kSeller, RejectReason::kNone};
  }
  static AuditDetail delivery_failed(IdentityId seller) {
    return {AuditKind::kDeliveryFailed, seller, 0, Money{}, Side::kSeller,
            RejectReason::kNone};
  }
  static AuditDetail deposit_confiscated(IdentityId seller, Money amount) {
    return {AuditKind::kDepositConfiscated, seller, 0, amount, Side::kSeller,
            RejectReason::kNone};
  }
  static AuditDetail deposit_refunded(IdentityId identity, Money amount) {
    return {AuditKind::kDepositRefunded, identity, 0, amount, Side::kBuyer,
            RejectReason::kNone};
  }

  AuditKind kind() const { return kind_; }

  /// Appends the detail text to `out`.
  void append_to(std::string& out) const;
  std::string str() const;
  /// Byte length of str(), without building it.
  std::size_t size() const;
  bool empty() const { return kind_ == AuditKind::kRoundOpened; }

  friend bool operator==(const AuditDetail&, const AuditDetail&) = default;

 private:
  AuditDetail(AuditKind kind, IdentityId identity, std::uint64_t word,
              Money amount, Side side, RejectReason reason)
      : identity_(identity),
        word_(word),
        amount_(amount),
        side_(side),
        kind_(kind),
        reason_(reason) {}

  /// The one rendering of the text: feeds its pieces to `put`.
  template <typename Put>
  void render(Put&& put) const;

  IdentityId identity_;
  /// Counterparty identity value (delivery) or trade count (round-cleared).
  std::uint64_t word_ = 0;
  Money amount_;
  Side side_ = Side::kBuyer;
  AuditKind kind_ = AuditKind::kRoundOpened;
  RejectReason reason_ = RejectReason::kNone;
};

struct AuditRecord {
  SimTime at;
  RoundId round;
  AuditDetail detail;

  AuditKind kind() const { return detail.kind(); }

  friend bool operator==(const AuditRecord&, const AuditRecord&) = default;
};

/// Appends one record's line, "t=12000 round-0 bid-accepted id-3 buyer@9"
/// (no newline) — the form dump(), the console and the examples share.
void append_line(const AuditRecord& record, std::string& out);

class AuditLog {
 public:
  void append(SimTime at, RoundId round, AuditDetail detail) {
    records_.push_back(AuditRecord{at, round, detail});
  }

  const SegmentedColumn<AuditRecord>& records() const { return records_; }
  std::size_t count(AuditKind kind) const;
  std::vector<AuditRecord> for_round(RoundId round) const;

  /// One append_line per record, each ending in '\n'.
  std::string dump() const;

 private:
  SegmentedColumn<AuditRecord> records_;
};

}  // namespace fnda
