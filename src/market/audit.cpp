#include "market/audit.h"

#include <charconv>
#include <string_view>

namespace fnda {

const char* to_string(AuditKind kind) {
  switch (kind) {
    case AuditKind::kRoundOpened: return "round-opened";
    case AuditKind::kBidAccepted: return "bid-accepted";
    case AuditKind::kBidRejected: return "bid-rejected";
    case AuditKind::kRoundCleared: return "round-cleared";
    case AuditKind::kDelivery: return "delivery";
    case AuditKind::kDeliveryFailed: return "delivery-failed";
    case AuditKind::kDepositConfiscated: return "deposit-confiscated";
    case AuditKind::kDepositRefunded: return "deposit-refunded";
  }
  return "?";
}

namespace {

/// Feeds the decimal digits of `value` to `put`.
template <typename Put, typename Int>
void put_number(Put& put, Int value) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  put(std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

/// Ids render as prefix + decimal, Money as Money::to_string — exactly
/// what operator<< streams.
template <typename Put, typename Tag>
void put_id(Put& put, TypedId<Tag> id) {
  put(Tag::prefix());
  put_number(put, id.value());
}

}  // namespace

template <typename Put>
void AuditDetail::render(Put&& put) const {
  switch (kind_) {
    case AuditKind::kRoundOpened:
      return;
    case AuditKind::kBidAccepted:
    case AuditKind::kBidRejected:
      put_id(put, identity_);
      put(" ");
      put(to_string(side_));
      put("@");
      put(amount_.to_string());
      if (kind_ == AuditKind::kBidRejected) {
        put(": ");
        put(to_string(reason_));
      }
      return;
    case AuditKind::kRoundCleared:
      put_number(put, word_);
      put(" trades, revenue ");
      put(amount_.to_string());
      return;
    case AuditKind::kDelivery:
      put_id(put, identity_);
      put(" -> ");
      put_id(put, IdentityId{word_});
      return;
    case AuditKind::kDeliveryFailed:
      put_id(put, identity_);
      return;
    case AuditKind::kDepositConfiscated:
    case AuditKind::kDepositRefunded:
      put_id(put, identity_);
      put(" ");
      put(amount_.to_string());
      return;
  }
}

void AuditDetail::append_to(std::string& out) const {
  render([&out](std::string_view piece) { out += piece; });
}

std::string AuditDetail::str() const {
  std::string out;
  append_to(out);
  return out;
}

std::size_t AuditDetail::size() const {
  std::size_t bytes = 0;
  render([&bytes](std::string_view piece) { bytes += piece.size(); });
  return bytes;
}

void append_line(const AuditRecord& record, std::string& out) {
  const auto put = [&out](std::string_view piece) { out += piece; };
  put("t=");
  put_number(put, record.at.micros);
  put(" ");
  put_id(put, record.round);
  put(" ");
  put(to_string(record.kind()));
  if (!record.detail.empty()) {
    put(" ");
    record.detail.append_to(out);
  }
}

std::size_t AuditLog::count(AuditKind kind) const {
  std::size_t n = 0;
  for (const AuditRecord& record : records_) {
    if (record.kind() == kind) ++n;
  }
  return n;
}

std::vector<AuditRecord> AuditLog::for_round(RoundId round) const {
  std::vector<AuditRecord> result;
  for (const AuditRecord& record : records_) {
    if (record.round == round) result.push_back(record);
  }
  return result;
}

std::string AuditLog::dump() const {
  std::string out;
  for (const AuditRecord& record : records_) {
    append_line(record, out);
    out += '\n';
  }
  return out;
}

}  // namespace fnda
