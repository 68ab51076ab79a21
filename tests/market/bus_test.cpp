#include "market/bus.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

namespace fnda {
namespace {

class Recorder : public Endpoint {
 public:
  void on_message(const Envelope& envelope) override {
    received.push_back(envelope);
  }
  std::vector<Envelope> received;
};

BusConfig quiet_bus() {
  BusConfig config;
  config.base_latency = SimTime{1000};
  config.jitter = SimTime{0};
  return config;
}

TEST(MessageBusTest, DeliversAfterLatency) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  Recorder recorder;
  bus.attach("b", recorder);

  bus.send("a", "b", RoundOpenMsg{RoundId{0}, SimTime{5000}});
  EXPECT_TRUE(recorder.received.empty());  // not yet delivered
  queue.run();
  ASSERT_EQ(recorder.received.size(), 1u);
  EXPECT_EQ(bus.name_of(recorder.received[0].from), "a");
  EXPECT_EQ(bus.name_of(recorder.received[0].to), "b");
  EXPECT_EQ(recorder.received[0].sent_at, SimTime{0});
  EXPECT_EQ(recorder.received[0].delivered_at, SimTime{1000});
  EXPECT_STREQ(message_kind(recorder.received[0].payload), "round-open");
}

TEST(MessageBusTest, JitterBoundsLatency) {
  EventQueue queue;
  BusConfig config = quiet_bus();
  config.jitter = SimTime{500};
  MessageBus bus(queue, config, Rng(7));
  Recorder recorder;
  bus.attach("b", recorder);
  for (int i = 0; i < 200; ++i) {
    bus.send("a", "b", RoundClosedMsg{RoundId{0}, 0, Money{}});
  }
  queue.run();
  ASSERT_EQ(recorder.received.size(), 200u);
  for (const Envelope& e : recorder.received) {
    EXPECT_GE(e.delivered_at.micros, 1000);
    EXPECT_LT(e.delivered_at.micros, 1500);
  }
}

TEST(MessageBusTest, DistinctMessageIds) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  Recorder recorder;
  bus.attach("b", recorder);
  const MessageId a = bus.send("a", "b", RoundClosedMsg{});
  const MessageId b = bus.send("a", "b", RoundClosedMsg{});
  EXPECT_NE(a, b);
}

TEST(MessageBusTest, DuplicationSharesMessageId) {
  EventQueue queue;
  BusConfig config = quiet_bus();
  config.duplicate_probability = 1.0;
  MessageBus bus(queue, config, Rng(3));
  Recorder recorder;
  bus.attach("b", recorder);
  bus.send("a", "b", RoundClosedMsg{});
  queue.run();
  ASSERT_EQ(recorder.received.size(), 2u);
  EXPECT_EQ(recorder.received[0].id, recorder.received[1].id);
  EXPECT_EQ(bus.stats().duplicated, 1u);
  EXPECT_EQ(bus.stats().delivered, 2u);
}

TEST(MessageBusTest, DropLosesMessage) {
  EventQueue queue;
  BusConfig config = quiet_bus();
  config.drop_probability = 1.0;
  MessageBus bus(queue, config, Rng(3));
  Recorder recorder;
  bus.attach("b", recorder);
  bus.send("a", "b", RoundClosedMsg{});
  queue.run();
  EXPECT_TRUE(recorder.received.empty());
  EXPECT_EQ(bus.stats().dropped, 1u);
  EXPECT_EQ(bus.stats().sent, 1u);
}

TEST(MessageBusTest, UnknownAddressDeadLetters) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  bus.send("a", "nobody", RoundClosedMsg{});
  queue.run();
  EXPECT_EQ(bus.stats().dead_lettered, 1u);
  EXPECT_EQ(bus.stats().delivered, 0u);
}

TEST(MessageBusTest, DetachDeadLettersInFlight) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  Recorder recorder;
  bus.attach("b", recorder);
  bus.send("a", "b", RoundClosedMsg{});
  bus.detach("b");
  queue.run();
  EXPECT_TRUE(recorder.received.empty());
  EXPECT_EQ(bus.stats().dead_lettered, 1u);
}

TEST(MessageBusTest, StochasticLossRateRoughlyMatches) {
  EventQueue queue;
  BusConfig config = quiet_bus();
  config.drop_probability = 0.25;
  MessageBus bus(queue, config, Rng(11));
  Recorder recorder;
  bus.attach("b", recorder);
  constexpr int kMessages = 4000;
  for (int i = 0; i < kMessages; ++i) {
    bus.send("a", "b", RoundClosedMsg{});
  }
  queue.run();
  EXPECT_NEAR(static_cast<double>(bus.stats().dropped) / kMessages, 0.25,
              0.03);
  EXPECT_EQ(bus.stats().delivered + bus.stats().dropped,
            static_cast<std::size_t>(kMessages));
}

// Every payload is plain data (the reject reason is an enum, not text), so
// bus slab slots and cross-shard envelopes copy without touching the heap.
static_assert(std::is_trivially_copyable_v<Message>);
static_assert(sizeof(Envelope) <= 80);

TEST(MessageKindTest, CoversEveryVariant) {
  EXPECT_STREQ(message_kind(RoundOpenMsg{}), "round-open");
  EXPECT_STREQ(message_kind(SubmitBidMsg{}), "submit-bid");
  EXPECT_STREQ(message_kind(BidAckMsg{}), "bid-ack");
  EXPECT_STREQ(message_kind(FillNoticeMsg{}), "fill");
  EXPECT_STREQ(message_kind(RoundClosedMsg{}), "round-closed");
  EXPECT_STREQ(message_kind(SettlementNoticeMsg{}), "settlement");
}

TEST(DedupFilterTest, FlagsRepeats) {
  DedupFilter filter;
  EXPECT_TRUE(filter.fresh(MessageId{1}));
  EXPECT_FALSE(filter.fresh(MessageId{1}));
  EXPECT_TRUE(filter.fresh(MessageId{2}));
  EXPECT_EQ(filter.seen_count(), 2u);
}

}  // namespace
}  // namespace fnda
