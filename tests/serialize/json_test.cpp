#include "serialize/json.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fnda {
namespace {

TEST(JsonWriterTest, ObjectWithScalars) {
  JsonWriter w;
  w.begin_object();
  w.key("n");
  w.value(3);
  w.key("x");
  w.value(4.5);
  w.key("s");
  w.value("hi");
  w.key("b");
  w.value(true);
  w.key("z");
  w.null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"n":3,"x":4.5,"s":"hi","b":true,"z":null})");
}

TEST(JsonWriterTest, NestedArrays) {
  JsonWriter w;
  w.begin_array();
  w.value(1);
  w.begin_array();
  w.value(2);
  w.value(3);
  w.end_array();
  w.begin_object();
  w.key("k");
  w.value("v");
  w.end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([1,[2,3],{"k":"v"}])");
}

TEST(JsonWriterTest, EscapesStrings) {
  // Keys and values both go through obs::json_escape (table-tested in
  // tests/obs/export_test.cpp).
  JsonWriter w;
  w.begin_object();
  w.key("k\"\n");
  w.value("quote\"backslash\\\x01");
  w.end_object();
  EXPECT_EQ(w.str(), R"({"k\"\n":"quote\"backslash\\\u0001"})");
}

TEST(JsonWriterTest, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key in array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // unterminated
  }
}

TEST(OutcomeJsonTest, SerializesFills) {
  Outcome outcome;
  outcome.add_buy(BidId{0}, IdentityId{1}, money(7));
  outcome.add_sell(BidId{1}, IdentityId{11}, money(4));
  const std::string json = outcome_to_json(outcome);
  EXPECT_EQ(json,
            R"({"trades":1,"buyer_payments":7,"seller_receipts":4,)"
            R"("auctioneer_revenue":3,"fills":[)"
            R"({"side":"buyer","identity":1,"price":7},)"
            R"({"side":"seller","identity":11,"price":4}]})");
}

TEST(AuditJsonTest, SerializesRecords) {
  AuditLog log;
  log.append(SimTime{12}, RoundId{0},
             AuditDetail::bid_accepted(IdentityId{1}, Side::kBuyer, money(9)));
  const std::string json = audit_to_json(log);
  EXPECT_EQ(json,
            R"([{"t_micros":12,"round":0,"kind":"bid-accepted",)"
            R"("detail":"id-1 buyer@9"}])");
}

TEST(SettlementJsonTest, SerializesDeliveries) {
  SettlementReport report;
  report.round = RoundId{3};
  report.failed = 1;
  report.confiscated_total = money(10);
  report.exchange_spread = money(2.5);
  Delivery ok;
  ok.seller = IdentityId{1};
  ok.buyer = IdentityId{2};
  ok.delivered = true;
  ok.buyer_paid = money(7);
  ok.seller_received = money(4.5);
  report.deliveries.push_back(ok);
  const std::string json = settlement_to_json(report);
  EXPECT_NE(json.find("\"round\":3"), std::string::npos);
  EXPECT_NE(json.find("\"failed_deliveries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"confiscated_total\":10"), std::string::npos);
  EXPECT_NE(json.find("\"delivered\":true"), std::string::npos);
  EXPECT_NE(json.find("\"seller_received\":4.5"), std::string::npos);
}

TEST(AuditJsonTest, EmptyLogIsEmptyArray) {
  EXPECT_EQ(audit_to_json(AuditLog{}), "[]");
}

}  // namespace
}  // namespace fnda
