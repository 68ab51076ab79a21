#include "market/audit.h"

#include <type_traits>

#include <gtest/gtest.h>

namespace fnda {
namespace {

static_assert(std::is_trivially_copyable_v<AuditRecord>);
static_assert(sizeof(AuditRecord) <= 56);

TEST(AuditLogTest, AppendsAndCounts) {
  AuditLog log;
  log.append(SimTime{10}, RoundId{0}, AuditDetail::round_opened());
  log.append(SimTime{20}, RoundId{0},
             AuditDetail::bid_accepted(IdentityId{1}, Side::kBuyer, money(9)));
  log.append(SimTime{20}, RoundId{0},
             AuditDetail::bid_accepted(IdentityId{2}, Side::kSeller, money(4)));
  log.append(SimTime{30}, RoundId{0}, AuditDetail::round_cleared(1, money(5)));

  EXPECT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.count(AuditKind::kBidAccepted), 2u);
  EXPECT_EQ(log.count(AuditKind::kDepositConfiscated), 0u);
}

TEST(AuditLogTest, FiltersByRound) {
  AuditLog log;
  log.append(SimTime{1}, RoundId{0}, AuditDetail::round_opened());
  log.append(SimTime{2}, RoundId{1}, AuditDetail::round_opened());
  log.append(SimTime{3}, RoundId{1},
             AuditDetail::round_cleared(0, Money{}));
  EXPECT_EQ(log.for_round(RoundId{0}).size(), 1u);
  EXPECT_EQ(log.for_round(RoundId{1}).size(), 2u);
  EXPECT_TRUE(log.for_round(RoundId{7}).empty());
}

TEST(AuditLogTest, DumpFormat) {
  AuditLog log;
  log.append(SimTime{12000}, RoundId{0},
             AuditDetail::bid_accepted(IdentityId{3}, Side::kBuyer, money(9)));
  log.append(SimTime{12500}, RoundId{1}, AuditDetail::round_opened());
  log.append(SimTime{13000}, RoundId::invalid(),
             AuditDetail::deposit_refunded(IdentityId{3}, money(10)));
  EXPECT_EQ(log.dump(),
            "t=12000 round-0 bid-accepted id-3 buyer@9\n"
            "t=12500 round-1 round-opened\n"
            "t=13000 round-18446744073709551615 deposit-refunded id-3 10\n");
}

TEST(AuditLogTest, KindNames) {
  EXPECT_STREQ(to_string(AuditKind::kDeliveryFailed), "delivery-failed");
  EXPECT_STREQ(to_string(AuditKind::kDepositConfiscated),
               "deposit-confiscated");
  EXPECT_STREQ(to_string(AuditKind::kDepositRefunded), "deposit-refunded");
}

// One row per kind (and per reject reason): the typed payload renders to
// exactly the text the free-text records used to carry.
TEST(AuditDetailTest, RendersEveryKind) {
  struct Row {
    AuditDetail detail;
    AuditKind kind;
    const char* text;
  };
  const Row rows[] = {
      {AuditDetail::round_opened(), AuditKind::kRoundOpened, ""},
      {AuditDetail::bid_accepted(IdentityId{3}, Side::kBuyer, money(9)),
       AuditKind::kBidAccepted, "id-3 buyer@9"},
      {AuditDetail::bid_rejected(IdentityId{7}, Side::kSeller, money(4.5),
                                 RejectReason::kInsufficientDeposit),
       AuditKind::kBidRejected, "id-7 seller@4.5: insufficient deposit"},
      {AuditDetail::bid_rejected(IdentityId{0}, Side::kBuyer, money(-0.25),
                                 RejectReason::kRoundNotOpen),
       AuditKind::kBidRejected, "id-0 buyer@-0.25: round not open"},
      {AuditDetail::bid_rejected(IdentityId{12}, Side::kBuyer, money(8),
                                 RejectReason::kIdentityAlreadyBid),
       AuditKind::kBidRejected,
       "id-12 buyer@8: identity already bid this round"},
      {AuditDetail::bid_rejected(IdentityId{5}, Side::kSeller, money(130),
                                 RejectReason::kValueOutsideDomain),
       AuditKind::kBidRejected, "id-5 seller@130: value outside domain"},
      {AuditDetail::round_cleared(3, money(1.25)), AuditKind::kRoundCleared,
       "3 trades, revenue 1.25"},
      {AuditDetail::round_cleared(0, Money{}), AuditKind::kRoundCleared,
       "0 trades, revenue 0"},
      {AuditDetail::delivery(IdentityId{2}, IdentityId{9}),
       AuditKind::kDelivery, "id-2 -> id-9"},
      {AuditDetail::delivery_failed(IdentityId{18446744073709551614ull}),
       AuditKind::kDeliveryFailed, "id-18446744073709551614"},
      {AuditDetail::deposit_confiscated(IdentityId{2}, money(10)),
       AuditKind::kDepositConfiscated, "id-2 10"},
      {AuditDetail::deposit_refunded(IdentityId{14}, money(0.000001)),
       AuditKind::kDepositRefunded, "id-14 0.000001"},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.detail.kind(), row.kind);
    EXPECT_EQ(row.detail.str(), row.text);
    EXPECT_EQ(row.detail.size(), std::string(row.text).size()) << row.text;
    EXPECT_EQ(row.detail.empty(), std::string(row.text).empty()) << row.text;
    std::string appended = "x";
    row.detail.append_to(appended);
    EXPECT_EQ(appended, std::string("x") + row.text);
  }
}

TEST(AuditDetailTest, RecordKindIsThePayloadKind) {
  const AuditRecord record{SimTime{4}, RoundId{2},
                           AuditDetail::delivery_failed(IdentityId{6})};
  EXPECT_EQ(record.kind(), AuditKind::kDeliveryFailed);
  EXPECT_EQ(record, (AuditRecord{SimTime{4}, RoundId{2},
                                 AuditDetail::delivery_failed(IdentityId{6})}));
  EXPECT_NE(record.detail, AuditDetail::delivery_failed(IdentityId{7}));
}

TEST(AuditDetailTest, AppendLineMatchesDump) {
  AuditLog log;
  log.append(SimTime{-5}, RoundId{4},
             AuditDetail::delivery(IdentityId{1}, IdentityId{2}));
  std::string line = "  ";
  append_line(log.records().front(), line);
  EXPECT_EQ(line, "  t=-5 round-4 delivery id-1 -> id-2");
  EXPECT_EQ(log.dump(), line.substr(2) + "\n");
}

TEST(RejectReasonTest, Names) {
  EXPECT_STREQ(to_string(RejectReason::kRoundNotOpen), "round not open");
  EXPECT_STREQ(to_string(RejectReason::kIdentityAlreadyBid),
               "identity already bid this round");
  EXPECT_STREQ(to_string(RejectReason::kInsufficientDeposit),
               "insufficient deposit");
  EXPECT_STREQ(to_string(RejectReason::kValueOutsideDomain),
               "value outside domain");
}

}  // namespace
}  // namespace fnda
