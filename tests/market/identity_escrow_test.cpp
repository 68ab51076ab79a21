#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "market/escrow.h"
#include "market/identity.h"

namespace fnda {
namespace {

TEST(IdentityRegistryTest, AccountsAreSequentialAndDistinctFromExchange) {
  IdentityRegistry registry;
  const AccountId a = registry.create_account();
  const AccountId b = registry.create_account();
  EXPECT_NE(a, b);
  EXPECT_NE(a, IdentityRegistry::exchange_account());
  EXPECT_EQ(registry.account_count(), 2u);
}

TEST(IdentityRegistryTest, IdentitiesMapToOwners) {
  IdentityRegistry registry;
  const AccountId account = registry.create_account();
  const IdentityId id1 = registry.register_identity(account);
  const IdentityId id2 = registry.register_identity(account);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(registry.owner(id1), account);
  EXPECT_EQ(registry.owner(id2), account);
  EXPECT_EQ(registry.identity_count(), 2u);
}

TEST(IdentityRegistryTest, UnknownIdentityThrows) {
  IdentityRegistry registry;
  EXPECT_THROW(registry.owner(IdentityId{99}), std::out_of_range);
}

TEST(IdentityRegistryTest, IdentitiesOfListsAllPseudonyms) {
  IdentityRegistry registry;
  const AccountId honest = registry.create_account();
  const AccountId cheat = registry.create_account();
  registry.register_identity(honest);
  const IdentityId fake1 = registry.register_identity(cheat);
  const IdentityId fake2 = registry.register_identity(cheat);
  const auto fakes = registry.identities_of(cheat);
  EXPECT_EQ(fakes.size(), 2u);
  EXPECT_NE(std::find(fakes.begin(), fakes.end(), fake1), fakes.end());
  EXPECT_NE(std::find(fakes.begin(), fakes.end(), fake2), fakes.end());
}

TEST(IdentityRegistryTest, StridedOwnerRejectsIdsOutsideTheMintedLattice) {
  IdentityRegistry registry(1, 4);  // shard 1 of 4: ids 1, 5, 9, ...
  const AccountId account = registry.create_account();
  for (int i = 0; i < 3; ++i) registry.register_identity(account);
  EXPECT_EQ(registry.owner(IdentityId{1}), account);
  EXPECT_EQ(registry.owner(IdentityId{9}), account);
  EXPECT_THROW(registry.owner(IdentityId{0}), std::out_of_range);  // < first
  EXPECT_THROW(registry.owner(IdentityId{3}), std::out_of_range);  // stride
  EXPECT_THROW(registry.owner(IdentityId{13}), std::out_of_range);  // unminted
  EXPECT_THROW(registry.owner(IdentityId::invalid()), std::out_of_range);
  EXPECT_EQ(registry.identity_count(), 3u);
}

TEST(IdentityRegistryTest, StridedIdentitiesOfAreAscending) {
  IdentityRegistry registry(1, 4);
  const AccountId a = registry.create_account();
  const AccountId b = registry.create_account();
  registry.register_identity(b);
  registry.register_identity(a);
  registry.register_identity(b);
  registry.register_identity(a);
  registry.register_identity(b);
  EXPECT_EQ(registry.identities_of(a),
            (std::vector<IdentityId>{IdentityId{5}, IdentityId{13}}));
  EXPECT_EQ(registry.identities_of(b),
            (std::vector<IdentityId>{IdentityId{1}, IdentityId{9},
                                     IdentityId{17}}));
  EXPECT_EQ(registry.identity_count(), 5u);
}

TEST(IdentityLatticeTest, SlotsAreDenseOnTheStride) {
  const IdentityLattice lattice{3, 8};
  EXPECT_EQ(lattice.slot_of(IdentityId{3}), 0u);
  EXPECT_EQ(lattice.slot_of(IdentityId{19}), 2u);
  EXPECT_FALSE(lattice.slot_of(IdentityId{2}).has_value());
  EXPECT_FALSE(lattice.slot_of(IdentityId{4}).has_value());
  for (std::size_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(lattice.slot_of(lattice.at(slot)), slot);
  }
}

class EscrowTest : public ::testing::Test {
 protected:
  CashLedger cash_;
  EscrowService escrow_{cash_};
  IdentityRegistry registry_;
  AccountId trader_ = registry_.create_account();
  AccountId exchange_ = IdentityRegistry::exchange_account();
  IdentityId identity_ = registry_.register_identity(trader_);

  void SetUp() override { cash_.grant(trader_, money(100)); }
};

TEST_F(EscrowTest, PostMovesCashIntoEscrow) {
  escrow_.post(identity_, trader_, money(10));
  EXPECT_EQ(escrow_.held(identity_), money(10));
  EXPECT_EQ(cash_.balance(trader_), money(90));
  EXPECT_EQ(cash_.total(), money(100));  // conservation
}

TEST_F(EscrowTest, PostsAccumulate) {
  escrow_.post(identity_, trader_, money(10));
  escrow_.post(identity_, trader_, money(5));
  EXPECT_EQ(escrow_.held(identity_), money(15));
  EXPECT_EQ(escrow_.total_held(), money(15));
}

TEST_F(EscrowTest, RefundRestoresCash) {
  escrow_.post(identity_, trader_, money(10));
  escrow_.refund(identity_, trader_);
  EXPECT_EQ(escrow_.held(identity_), Money{});
  EXPECT_EQ(cash_.balance(trader_), money(100));
}

TEST_F(EscrowTest, ConfiscateGoesToExchange) {
  escrow_.post(identity_, trader_, money(10));
  const Money seized = escrow_.confiscate(identity_, exchange_);
  EXPECT_EQ(seized, money(10));
  EXPECT_EQ(escrow_.held(identity_), Money{});
  EXPECT_EQ(cash_.balance(exchange_), money(10));
  EXPECT_EQ(cash_.balance(trader_), money(90));
}

TEST_F(EscrowTest, ConfiscateEmptyIsNoop) {
  EXPECT_EQ(escrow_.confiscate(identity_, exchange_), Money{});
  EXPECT_EQ(cash_.balance(exchange_), Money{});
}

TEST_F(EscrowTest, RefundEmptyIsNoop) {
  escrow_.refund(identity_, trader_);
  EXPECT_EQ(cash_.balance(trader_), money(100));
}

TEST_F(EscrowTest, DoubleConfiscateSeizesOnce) {
  escrow_.post(identity_, trader_, money(10));
  EXPECT_EQ(escrow_.confiscate(identity_, exchange_), money(10));
  EXPECT_EQ(escrow_.confiscate(identity_, exchange_), Money{});
  EXPECT_EQ(cash_.balance(exchange_), money(10));
}

TEST_F(EscrowTest, PostKeepsCashTotalWithEscrowPseudoAccount) {
  escrow_.post(identity_, trader_, money(10));
  EXPECT_EQ(cash_.balance(CashLedger::escrow_account()), money(10));
  EXPECT_EQ(cash_.total(), money(100));
}

TEST_F(EscrowTest, PostRejectsIdsTooFarAlongTheLattice) {
  EXPECT_THROW(escrow_.post(IdentityId::invalid(), trader_, money(1)),
               std::out_of_range);
  EXPECT_EQ(escrow_.total_held(), Money{});
  EXPECT_EQ(cash_.total(), money(100));
}

TEST_F(EscrowTest, HolderCountTracksNonZeroDeposits) {
  const IdentityId second = registry_.register_identity(trader_);
  EXPECT_EQ(escrow_.holder_count(), 0u);
  escrow_.post(identity_, trader_, money(10));
  escrow_.post(second, trader_, money(10));
  EXPECT_EQ(escrow_.holder_count(), 2u);
  escrow_.refund(identity_, trader_);
  EXPECT_EQ(escrow_.holder_count(), 1u);
  EXPECT_EQ(escrow_.holder_count(), escrow_.identities_with_deposits().size());
}

/// Escrow on shard 2 of a 4-shard namespace: ids 2, 6, 10, ...
class StridedEscrowTest : public ::testing::Test {
 protected:
  IdentityRegistry registry_{2, 4};
  CashLedger cash_;
  EscrowService escrow_{cash_, registry_.lattice()};
  AccountId trader_ = registry_.create_account();
  AccountId exchange_ = IdentityRegistry::exchange_account();

  void SetUp() override { cash_.grant(trader_, money(100)); }
};

TEST_F(StridedEscrowTest, PostsRefundsAndConfiscatesMintedIds) {
  const IdentityId a = registry_.register_identity(trader_);
  const IdentityId b = registry_.register_identity(trader_);
  const IdentityId c = registry_.register_identity(trader_);
  escrow_.post(a, trader_, money(10));
  escrow_.post(b, trader_, money(10));
  escrow_.post(c, trader_, money(5));
  EXPECT_EQ(escrow_.held(b), money(10));
  EXPECT_EQ(escrow_.total_held(), money(25));
  EXPECT_EQ(cash_.total(), money(100));

  escrow_.refund(a, trader_);
  EXPECT_EQ(escrow_.confiscate(b, exchange_), money(10));
  EXPECT_EQ(escrow_.held(a), Money{});
  EXPECT_EQ(escrow_.held(b), Money{});
  EXPECT_EQ(escrow_.held(c), money(5));
  EXPECT_EQ(escrow_.total_held(), money(5));
  EXPECT_EQ(cash_.balance(trader_), money(85));
  EXPECT_EQ(cash_.balance(exchange_), money(10));
  EXPECT_EQ(cash_.total(), money(100));
}

TEST_F(StridedEscrowTest, OffLatticeIdsHoldNothingAndCannotPost) {
  const IdentityId minted = registry_.register_identity(trader_);
  escrow_.post(minted, trader_, money(10));
  EXPECT_EQ(escrow_.held(IdentityId{3}), Money{});
  EXPECT_EQ(escrow_.confiscate(IdentityId{1}, exchange_), Money{});
  escrow_.refund(IdentityId{0}, trader_);
  EXPECT_THROW(escrow_.post(IdentityId{3}, trader_, money(1)),
               std::out_of_range);
  EXPECT_EQ(escrow_.total_held(), money(10));
  EXPECT_EQ(cash_.total(), money(100));
}

TEST_F(StridedEscrowTest, IdentitiesWithDepositsAreAscending) {
  std::vector<IdentityId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(registry_.register_identity(trader_));
  }
  for (const int i : {4, 0, 3, 1}) escrow_.post(ids[i], trader_, money(1));
  escrow_.confiscate(ids[3], exchange_);
  EXPECT_EQ(escrow_.identities_with_deposits(),
            (std::vector<IdentityId>{ids[0], ids[1], ids[4]}));
}

TEST_F(StridedEscrowTest, RefundAllPaysOwnersInAscendingIdentityOrder) {
  const AccountId other = registry_.create_account();
  std::vector<IdentityId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(registry_.register_identity(i % 2 == 0 ? trader_ : other));
  }
  for (const int i : {3, 2, 0}) {
    escrow_.post(ids[i], i % 2 == 0 ? trader_ : other, money(10 + i));
  }
  AuditLog audit;
  EXPECT_EQ(escrow_.refund_all(registry_, audit, SimTime{7}), money(35));
  std::vector<std::string> details;
  for (const AuditRecord& record : audit.records()) {
    EXPECT_EQ(record.kind(), AuditKind::kDepositRefunded);
    EXPECT_EQ(record.at, SimTime{7});
    EXPECT_FALSE(record.round.is_valid());
    details.push_back(record.detail.str());
  }
  // ids 2, 10, 14 on the shard-2-of-4 lattice; detail is "<id> <amount>".
  EXPECT_EQ(details,
            (std::vector<std::string>{"id-2 10", "id-10 12", "id-14 13"}));
  EXPECT_EQ(escrow_.total_held(), Money{});
  EXPECT_EQ(escrow_.holder_count(), 0u);
  EXPECT_EQ(cash_.balance(trader_), money(100));
  EXPECT_EQ(cash_.balance(other), Money{});
  EXPECT_EQ(cash_.total(), money(100));
}

}  // namespace
}  // namespace fnda
