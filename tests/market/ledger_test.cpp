#include "market/ledger.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fnda {
namespace {

TEST(CashLedgerTest, GrantAndBalance) {
  CashLedger cash;
  EXPECT_EQ(cash.balance(AccountId{1}), Money{});
  cash.grant(AccountId{1}, money(100));
  EXPECT_EQ(cash.balance(AccountId{1}), money(100));
  cash.grant(AccountId{1}, money(50));
  EXPECT_EQ(cash.balance(AccountId{1}), money(150));
}

TEST(CashLedgerTest, TransferConservesTotal) {
  CashLedger cash;
  cash.grant(AccountId{1}, money(100));
  cash.grant(AccountId{2}, money(30));
  const Money before = cash.total();
  cash.transfer(AccountId{1}, AccountId{2}, money(45));
  EXPECT_EQ(cash.balance(AccountId{1}), money(55));
  EXPECT_EQ(cash.balance(AccountId{2}), money(75));
  EXPECT_EQ(cash.total(), before);
}

TEST(CashLedgerTest, BalancesMayGoNegative) {
  CashLedger cash;
  cash.transfer(AccountId{1}, AccountId{2}, money(10));
  EXPECT_EQ(cash.balance(AccountId{1}), money(-10));
  EXPECT_EQ(cash.total(), Money{});
}

TEST(CashLedgerTest, NeverSeenAccountsReadZero) {
  CashLedger cash;
  cash.grant(AccountId{3}, money(7));
  EXPECT_EQ(cash.balance(AccountId{0}), Money{});
  EXPECT_EQ(cash.balance(AccountId{1'000'000}), Money{});
  EXPECT_EQ(cash.balance(CashLedger::escrow_account()), Money{});
  EXPECT_EQ(cash.total(), money(7));
}

TEST(CashLedgerTest, TotalCoversTheEscrowPseudoAccount) {
  CashLedger cash;
  cash.grant(AccountId{1}, money(100));
  cash.transfer(AccountId{1}, CashLedger::escrow_account(), money(40));
  EXPECT_EQ(cash.balance(CashLedger::escrow_account()), money(40));
  EXPECT_EQ(cash.balance(AccountId{1}), money(60));
  EXPECT_EQ(cash.total(), money(100));
}

TEST(CashLedgerTest, SparseAccountIdsKeepTheirOwnBalances) {
  CashLedger cash;
  cash.grant(AccountId{5000}, money(3));
  cash.transfer(AccountId{5000}, AccountId{2}, money(1));
  EXPECT_EQ(cash.balance(AccountId{5000}), money(2));
  EXPECT_EQ(cash.balance(AccountId{2}), money(1));
  EXPECT_EQ(cash.balance(AccountId{4999}), Money{});
  EXPECT_EQ(cash.total(), money(3));
}

TEST(CashLedgerTest, AccountIdsPastTheDenseRangeThrow) {
  CashLedger cash;
  EXPECT_THROW(cash.grant(AccountId::invalid(), money(1)), std::out_of_range);
  EXPECT_EQ(cash.balance(AccountId::invalid()), Money{});
  EXPECT_EQ(cash.total(), Money{});
}

TEST(GoodsLedgerTest, GrantAndTransfer) {
  GoodsLedger goods;
  goods.grant(AccountId{1}, 2);
  EXPECT_EQ(goods.units(AccountId{1}), 2u);
  EXPECT_TRUE(goods.transfer_unit(AccountId{1}, AccountId{2}));
  EXPECT_EQ(goods.units(AccountId{1}), 1u);
  EXPECT_EQ(goods.units(AccountId{2}), 1u);
  EXPECT_EQ(goods.total(), 2u);
}

TEST(GoodsLedgerTest, TransferFailsWhenEmpty) {
  GoodsLedger goods;
  EXPECT_FALSE(goods.transfer_unit(AccountId{1}, AccountId{2}));
  goods.grant(AccountId{1}, 1);
  EXPECT_TRUE(goods.transfer_unit(AccountId{1}, AccountId{2}));
  EXPECT_FALSE(goods.transfer_unit(AccountId{1}, AccountId{2}));
  EXPECT_EQ(goods.total(), 1u);
}

TEST(GoodsLedgerTest, UnknownAccountHoldsNothing) {
  GoodsLedger goods;
  EXPECT_EQ(goods.units(AccountId{42}), 0u);
  EXPECT_EQ(goods.total(), 0u);
}

TEST(GoodsLedgerTest, NeverSeenAccountsReadZeroBesideHeldUnits) {
  GoodsLedger goods;
  goods.grant(AccountId{9}, 2);
  EXPECT_EQ(goods.units(AccountId{8}), 0u);
  EXPECT_EQ(goods.units(AccountId{1'000'000}), 0u);
  EXPECT_FALSE(goods.transfer_unit(AccountId{8}, AccountId{9}));
  EXPECT_EQ(goods.total(), 2u);
}

}  // namespace
}  // namespace fnda
