#include "serialize/json.h"

#include <cstdio>
#include <stdexcept>

#include "obs/export.h"

namespace fnda {

void JsonWriter::prefix() {
  if (is_object_.empty()) return;
  if (is_object_.back() && !pending_key_) {
    throw std::logic_error("JsonWriter: object member needs key() first");
  }
  if (!pending_key_) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  pending_key_ = false;
}

void JsonWriter::begin_object() {
  prefix();
  out_ += '{';
  is_object_.push_back(true);
  first_.push_back(true);
}

void JsonWriter::end_object() {
  if (is_object_.empty() || !is_object_.back()) {
    throw std::logic_error("JsonWriter: end_object without begin_object");
  }
  out_ += '}';
  is_object_.pop_back();
  first_.pop_back();
}

void JsonWriter::begin_array() {
  prefix();
  out_ += '[';
  is_object_.push_back(false);
  first_.push_back(true);
}

void JsonWriter::end_array() {
  if (is_object_.empty() || is_object_.back()) {
    throw std::logic_error("JsonWriter: end_array without begin_array");
  }
  out_ += ']';
  is_object_.pop_back();
  first_.pop_back();
}

void JsonWriter::key(const std::string& name) {
  if (is_object_.empty() || !is_object_.back()) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  if (pending_key_) throw std::logic_error("JsonWriter: duplicate key()");
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '"';
  out_ += obs::json_escape(name);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(const std::string& text) {
  prefix();
  out_ += '"';
  out_ += obs::json_escape(text);
  out_ += '"';
}

void JsonWriter::value(std::int64_t number) {
  prefix();
  out_ += std::to_string(number);
}

void JsonWriter::value(std::uint64_t number) {
  prefix();
  out_ += std::to_string(number);
}

void JsonWriter::value(double number) {
  prefix();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", number);
  out_ += buffer;
}

void JsonWriter::value(bool flag) {
  prefix();
  out_ += flag ? "true" : "false";
}

void JsonWriter::null() {
  prefix();
  out_ += "null";
}

std::string JsonWriter::str() const {
  if (!is_object_.empty()) {
    throw std::logic_error("JsonWriter: unterminated container");
  }
  return out_;
}

std::string outcome_to_json(const Outcome& outcome) {
  JsonWriter w;
  w.begin_object();
  w.key("trades");
  w.value(static_cast<std::uint64_t>(outcome.trade_count()));
  w.key("buyer_payments");
  w.value(outcome.buyer_payments().to_double());
  w.key("seller_receipts");
  w.value(outcome.seller_receipts().to_double());
  w.key("auctioneer_revenue");
  w.value(outcome.auctioneer_revenue().to_double());
  w.key("fills");
  w.begin_array();
  for (const Fill& fill : outcome.fills()) {
    w.begin_object();
    w.key("side");
    w.value(to_string(fill.side));
    w.key("identity");
    w.value(fill.identity.value());
    w.key("price");
    w.value(fill.price.to_double());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string settlement_to_json(const SettlementReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("round");
  w.value(report.round.value());
  w.key("failed_deliveries");
  w.value(static_cast<std::uint64_t>(report.failed));
  w.key("confiscated_total");
  w.value(report.confiscated_total.to_double());
  w.key("exchange_spread");
  w.value(report.exchange_spread.to_double());
  w.key("deliveries");
  w.begin_array();
  for (const Delivery& delivery : report.deliveries) {
    w.begin_object();
    w.key("seller_identity");
    w.value(delivery.seller.value());
    w.key("buyer_identity");
    w.value(delivery.buyer.value());
    w.key("delivered");
    w.value(delivery.delivered);
    w.key("buyer_paid");
    w.value(delivery.buyer_paid.to_double());
    w.key("seller_received");
    w.value(delivery.seller_received.to_double());
    w.key("confiscated");
    w.value(delivery.confiscated.to_double());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string audit_to_json(const AuditLog& log) {
  JsonWriter w;
  w.begin_array();
  for (const AuditRecord& record : log.records()) {
    w.begin_object();
    w.key("t_micros");
    w.value(record.at.micros);
    w.key("round");
    w.value(record.round.value());
    w.key("kind");
    w.value(to_string(record.kind()));
    w.key("detail");
    w.value(record.detail.str());
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace fnda
