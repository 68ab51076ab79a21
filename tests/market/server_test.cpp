#include "market/server.h"

#include <gtest/gtest.h>

#include "protocols/tpd.h"

namespace fnda {
namespace {

/// Bare-bones endpoint capturing everything addressed to it.
class Probe : public Endpoint {
 public:
  void on_message(const Envelope& envelope) override {
    received.push_back(envelope);
  }
  std::size_t count(const char* kind) const {
    std::size_t n = 0;
    for (const Envelope& e : received) {
      if (std::string(message_kind(e.payload)) == kind) ++n;
    }
    return n;
  }
  std::vector<Envelope> received;
};

/// Server wired to real escrow/settlement over deterministic transport.
class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() {
    BusConfig bus_config;
    bus_config.base_latency = SimTime{100};
    bus_config.jitter = SimTime{0};
    bus_ = std::make_unique<MessageBus>(queue_, bus_config, Rng(2));
    escrow_ = std::make_unique<EscrowService>(cash_);
    settlement_ = std::make_unique<SettlementEngine>(registry_, cash_, goods_,
                                                     *escrow_);
    server_ = std::make_unique<AuctionServer>(
        "server", queue_, *bus_, tpd_, *escrow_, *settlement_, audit_, Rng(3),
        ServerConfig{});
    server_->subscribe(bus_->attach("probe", probe_));
  }

  /// Creates a funded, deposited identity.
  IdentityId make_identity(bool endow_good) {
    const AccountId account = registry_.create_account();
    cash_.grant(account, money(1000));
    if (endow_good) goods_.grant(account, 1);
    const IdentityId identity = registry_.register_identity(account);
    escrow_->post(identity, account, money(10));
    return identity;
  }

  void submit(RoundId round, IdentityId identity, Side side, Money value) {
    bus_->send("probe", "server", SubmitBidMsg{round, identity, side, value});
  }

  EventQueue queue_;
  std::unique_ptr<MessageBus> bus_;
  IdentityRegistry registry_;
  CashLedger cash_;
  GoodsLedger goods_;
  std::unique_ptr<EscrowService> escrow_;
  std::unique_ptr<SettlementEngine> settlement_;
  AuditLog audit_;
  TpdProtocol tpd_{money(4.5)};
  std::unique_ptr<AuctionServer> server_;
  Probe probe_;
};

TEST_F(ServerFixture, RoundLifecycleBroadcasts) {
  const RoundId round = server_->open_round(SimTime::millis(10));
  queue_.run();
  EXPECT_EQ(probe_.count("round-open"), 1u);
  EXPECT_EQ(probe_.count("round-closed"), 1u);
  EXPECT_EQ(server_->rounds_completed(), 1u);
  EXPECT_FALSE(server_->round_open());
  ASSERT_NE(server_->outcome_of(round), nullptr);
  EXPECT_EQ(server_->outcome_of(round)->trade_count(), 0u);
}

TEST_F(ServerFixture, AcceptsValidBidAndClears) {
  const IdentityId buyer = make_identity(false);
  const IdentityId seller = make_identity(true);
  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, buyer, Side::kBuyer, money(9));
  submit(round, seller, Side::kSeller, money(2));
  queue_.run();

  EXPECT_EQ(probe_.count("bid-ack"), 2u);
  const Outcome* outcome = server_->outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->trade_count(), 1u);
  EXPECT_EQ(probe_.count("fill"), 2u);
  // Settlement delivered: the buyer account now holds the good.
  EXPECT_EQ(goods_.units(registry_.owner(buyer)), 1u);
  EXPECT_EQ(audit_.count(AuditKind::kDelivery), 1u);
}

TEST_F(ServerFixture, RejectsSecondBidFromSameIdentity) {
  const IdentityId buyer = make_identity(false);
  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, buyer, Side::kBuyer, money(9));
  submit(round, buyer, Side::kBuyer, money(8));
  queue_.run();
  EXPECT_EQ(audit_.count(AuditKind::kBidAccepted), 1u);
  EXPECT_EQ(audit_.count(AuditKind::kBidRejected), 1u);
}

TEST_F(ServerFixture, RejectsWithoutDeposit) {
  const AccountId account = registry_.create_account();
  const IdentityId broke = registry_.register_identity(account);
  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, broke, Side::kBuyer, money(9));
  queue_.run();
  EXPECT_EQ(audit_.count(AuditKind::kBidRejected), 1u);
  const auto records = audit_.for_round(round);
  bool found = false;
  for (const auto& r : records) {
    found |= r.detail.str().find("insufficient deposit") != std::string::npos;
  }
  EXPECT_TRUE(found);
  // The reason travels on the wire too.
  bool acked = false;
  for (const Envelope& e : probe_.received) {
    if (const auto* ack = std::get_if<BidAckMsg>(&e.payload)) {
      EXPECT_FALSE(ack->accepted());
      EXPECT_EQ(ack->reason, RejectReason::kInsufficientDeposit);
      acked = true;
    }
  }
  EXPECT_TRUE(acked);
}

TEST_F(ServerFixture, RejectsLateBid) {
  const IdentityId buyer = make_identity(false);
  const RoundId round = server_->open_round(SimTime::millis(1));
  queue_.run();  // round closes before this bid is sent
  submit(round, buyer, Side::kBuyer, money(9));
  queue_.run();
  EXPECT_EQ(audit_.count(AuditKind::kBidRejected), 1u);
}

TEST_F(ServerFixture, RejectsBidForWrongRound) {
  const IdentityId buyer = make_identity(false);
  server_->open_round(SimTime::millis(10));
  submit(RoundId{999}, buyer, Side::kBuyer, money(9));
  queue_.run();
  EXPECT_EQ(audit_.count(AuditKind::kBidRejected), 1u);
}

TEST_F(ServerFixture, RejectsOutOfDomainValue) {
  const IdentityId buyer = make_identity(false);
  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, buyer, Side::kBuyer, money(2'000'000'000));
  queue_.run();
  EXPECT_EQ(audit_.count(AuditKind::kBidRejected), 1u);
}

TEST_F(ServerFixture, CannotOpenTwoRounds) {
  server_->open_round(SimTime::millis(10));
  EXPECT_THROW(server_->open_round(SimTime::millis(10)), std::logic_error);
}

TEST_F(ServerFixture, MultipleSequentialRounds) {
  const IdentityId buyer = make_identity(false);
  const IdentityId seller = make_identity(true);
  const RoundId r0 = server_->open_round(SimTime::millis(10));
  submit(r0, buyer, Side::kBuyer, money(9));
  submit(r0, seller, Side::kSeller, money(2));
  queue_.run();
  const RoundId r1 = server_->open_round(SimTime::millis(10));
  queue_.run();
  EXPECT_EQ(server_->rounds_completed(), 2u);
  EXPECT_NE(r0, r1);
  EXPECT_EQ(server_->outcome_of(r0)->trade_count(), 1u);
  EXPECT_EQ(server_->outcome_of(r1)->trade_count(), 0u);
}

TEST_F(ServerFixture, ReplayReproducesStoredOutcome) {
  const IdentityId b1 = make_identity(false);
  const IdentityId b2 = make_identity(false);
  const IdentityId s1 = make_identity(true);
  const IdentityId s2 = make_identity(true);
  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, b1, Side::kBuyer, money(9));
  submit(round, b2, Side::kBuyer, money(7));
  submit(round, s1, Side::kSeller, money(2));
  submit(round, s2, Side::kSeller, money(3));
  queue_.run();

  const auto replayed = server_->replay_round(round);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->fills(), server_->outcome_of(round)->fills());
  EXPECT_FALSE(server_->replay_round(RoundId{888}).has_value());
}

TEST_F(ServerFixture, BookStatsTrackIncrementalWorkPerRound) {
  const IdentityId buyer = make_identity(false);
  const IdentityId seller = make_identity(true);
  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, buyer, Side::kBuyer, money(9));
  submit(round, seller, Side::kSeller, money(2));
  queue_.run();

  EXPECT_EQ(server_->book_stats().inserts, 2u);
  EXPECT_EQ(server_->book_stats().rounds_finalized, 1u);
  EXPECT_EQ(server_->book_stats().sorts_at_close, 0u);

  // Counters accumulate across rounds; replay does not re-insert or
  // re-finalize (it clears the retained ranked view).
  const auto replayed = server_->replay_round(round);
  ASSERT_TRUE(replayed.has_value());
  server_->open_round(SimTime::millis(10));
  queue_.run();
  EXPECT_EQ(server_->book_stats().inserts, 2u);
  EXPECT_EQ(server_->book_stats().rounds_finalized, 2u);
  EXPECT_EQ(server_->book_stats().sorts_at_close, 0u);
}

TEST_F(ServerFixture, FalseNameSellerConfiscatedEndToEnd) {
  const IdentityId buyer = make_identity(false);
  // A buyer account also bidding as a seller — no good behind it.
  const AccountId cheat_account = registry_.create_account();
  cash_.grant(cheat_account, money(1000));
  const IdentityId fake_seller = registry_.register_identity(cheat_account);
  escrow_->post(fake_seller, cheat_account, money(10));

  const RoundId round = server_->open_round(SimTime::millis(10));
  submit(round, buyer, Side::kBuyer, money(9));
  submit(round, fake_seller, Side::kSeller, money(2));
  queue_.run();

  EXPECT_EQ(server_->outcome_of(round)->trade_count(), 1u);
  EXPECT_EQ(audit_.count(AuditKind::kDeliveryFailed), 1u);
  EXPECT_EQ(audit_.count(AuditKind::kDepositConfiscated), 1u);
  EXPECT_EQ(escrow_->held(fake_seller), Money{});
  // The matched buyer was made whole (only its deposit is out of pocket).
  EXPECT_EQ(cash_.balance(registry_.owner(buyer)), money(990));
  EXPECT_EQ(probe_.count("settlement"), 1u);
}

TEST_F(ServerFixture, SetProtocolSwapsBetweenRounds) {
  const IdentityId buyer = make_identity(false);
  const IdentityId seller = make_identity(true);

  const RoundId r0 = server_->open_round(SimTime::millis(10));
  submit(r0, buyer, Side::kBuyer, money(9));
  submit(r0, seller, Side::kSeller, money(2));
  queue_.run();
  // tpd_ has threshold 4.5: one trade at 4.5 each side.
  EXPECT_EQ(server_->outcome_of(r0)->trade_count(), 1u);

  // Swap to a much higher threshold: the same population cannot trade.
  const TpdProtocol high(money(500));
  server_->set_protocol(high);
  const IdentityId buyer2 = make_identity(false);
  const RoundId r1 = server_->open_round(SimTime::millis(10));
  submit(r1, buyer2, Side::kBuyer, money(9));
  queue_.run();
  EXPECT_EQ(server_->outcome_of(r1)->trade_count(), 0u);

  // Replay of the OLD round still uses the old protocol.
  const auto replayed = server_->replay_round(r0);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->fills(), server_->outcome_of(r0)->fills());
}

TEST_F(ServerFixture, SetProtocolRefusedWhileRoundOpen) {
  server_->open_round(SimTime::millis(10));
  const TpdProtocol other(money(9));
  EXPECT_THROW(server_->set_protocol(other), std::logic_error);
  queue_.run();
  EXPECT_NO_THROW(server_->set_protocol(other));
}

TEST_F(ServerFixture, DuplicateSubmitDeliveredTwiceCountsOnce) {
  BusConfig dup_config;
  dup_config.base_latency = SimTime{100};
  dup_config.jitter = SimTime{0};
  dup_config.duplicate_probability = 1.0;
  EventQueue queue;
  MessageBus bus(queue, dup_config, Rng(5));
  AuditLog audit;
  EscrowService escrow(cash_);
  SettlementEngine settlement(registry_, cash_, goods_, escrow);
  AuctionServer server("server2", queue, bus, tpd_, escrow, settlement, audit,
                       Rng(6), ServerConfig{});

  const AccountId account = registry_.create_account();
  cash_.grant(account, money(1000));
  const IdentityId identity = registry_.register_identity(account);
  escrow.post(identity, account, money(10));

  Probe probe;
  bus.attach("probe2", probe);
  const RoundId round = server.open_round(SimTime::millis(10));
  bus.send("probe2", "server2",
           SubmitBidMsg{round, identity, Side::kBuyer, money(9)});
  queue.run();
  // Transport duplicated the submit, but the server ignored the repeat:
  // one accept, zero rejects.
  EXPECT_EQ(audit.count(AuditKind::kBidAccepted), 1u);
  EXPECT_EQ(audit.count(AuditKind::kBidRejected), 0u);
}

TEST_F(ServerFixture, DuplicateRejectedSubmitRejectsOnce) {
  BusConfig dup_config;
  dup_config.base_latency = SimTime{100};
  dup_config.jitter = SimTime{0};
  dup_config.duplicate_probability = 1.0;
  EventQueue queue;
  MessageBus bus(queue, dup_config, Rng(5));
  AuditLog audit;
  EscrowService escrow(cash_);
  SettlementEngine settlement(registry_, cash_, goods_, escrow);
  AuctionServer server("server2", queue, bus, tpd_, escrow, settlement, audit,
                       Rng(6), ServerConfig{});

  // No deposit posted: the submit is rejected for insufficient deposit.
  const AccountId account = registry_.create_account();
  cash_.grant(account, money(1000));
  const IdentityId identity = registry_.register_identity(account);

  // Counts the first arrival of each message apart from its repeat, so
  // the ack's own transport duplicate does not read as a second ack.
  struct FirstArrivals : Probe {
    void on_repeat(const Envelope&) override { ++repeats; }
    std::size_t repeats = 0;
  } probe;
  bus.attach("probe2", probe);
  const RoundId round = server.open_round(SimTime::millis(10));
  bus.send("probe2", "server2",
           SubmitBidMsg{round, identity, Side::kBuyer, money(9)});
  queue.run();
  EXPECT_EQ(audit.count(AuditKind::kBidRejected), 1u);
  EXPECT_EQ(audit.count(AuditKind::kBidAccepted), 0u);
  ASSERT_EQ(probe.count("bid-ack"), 1u);
  EXPECT_EQ(probe.repeats, 1u);
  const auto& ack = std::get<BidAckMsg>(probe.received[0].payload);
  EXPECT_EQ(ack.identity, identity);
  EXPECT_EQ(ack.reason, RejectReason::kInsufficientDeposit);
}

}  // namespace
}  // namespace fnda
