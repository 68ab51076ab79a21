// Wire protocol of the simulated call-market exchange.
//
// Identity management and deposit posting are out-of-band (they model the
// account-opening phase); the bidding round itself — open, submit, ack,
// fill, settle — is fully message-based so that latency, duplication and
// loss exercise the server's idempotency logic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>

#include "common/ids.h"
#include "common/money.h"
#include "core/bid.h"
#include "market/clock.h"

namespace fnda {

/// Server -> everyone: a round is accepting bids until `close_at`.
struct RoundOpenMsg {
  RoundId round;
  SimTime close_at;
};

/// Client -> server: one declaration for `round` under `identity`.
struct SubmitBidMsg {
  RoundId round;
  IdentityId identity;
  Side side;
  Money value;
};

/// Why the server refused a declaration (kNone: it did not).
enum class RejectReason : std::uint8_t {
  kNone,
  kRoundNotOpen,
  kIdentityAlreadyBid,
  kInsufficientDeposit,
  kValueOutsideDomain,
};

/// The reason as the audit trail spells it ("insufficient deposit").
constexpr const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kRoundNotOpen: return "round not open";
    case RejectReason::kIdentityAlreadyBid:
      return "identity already bid this round";
    case RejectReason::kInsufficientDeposit: return "insufficient deposit";
    case RejectReason::kValueOutsideDomain: return "value outside domain";
  }
  return "?";
}

/// Server -> client: bid accepted, or rejected for `reason`.
struct BidAckMsg {
  RoundId round;
  IdentityId identity;
  RejectReason reason = RejectReason::kNone;

  bool accepted() const { return reason == RejectReason::kNone; }
};

/// Server -> client: one unit filled for `identity` at `price`.
struct FillNoticeMsg {
  RoundId round;
  IdentityId identity;
  Side side;
  Money price;
};

/// Server -> everyone: round summary.
struct RoundClosedMsg {
  RoundId round;
  std::size_t trades = 0;
  Money auctioneer_revenue;
};

/// Server -> client: settlement result for a traded seller identity.
struct SettlementNoticeMsg {
  RoundId round;
  IdentityId identity;
  bool delivered = false;
  Money deposit_confiscated;
};

using Message = std::variant<RoundOpenMsg, SubmitBidMsg, BidAckMsg,
                             FillNoticeMsg, RoundClosedMsg,
                             SettlementNoticeMsg>;

/// Short tag for logs ("submit-bid", "fill", ...).
const char* message_kind(const Message& message);

}  // namespace fnda
