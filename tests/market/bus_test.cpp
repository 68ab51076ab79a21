#include "market/bus.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "timer_callbacks.h"

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

/// Logs every arrival in order, tagging how it came: alone, inside a
/// batch (with the batch's size), or as a repeat.
class ArrivalLog : public Endpoint {
 public:
  struct Arrival {
    enum Kind { kMessage, kBatch, kRepeat } kind;
    std::size_t batch_size;
    const Envelope* slot;  // the bus slab slot the copy arrived in
    Envelope envelope;
  };
  void on_message(const Envelope& envelope) override {
    arrivals.push_back({Arrival::kMessage, 0, &envelope, envelope});
  }
  void on_batch(const Envelope* const* envelopes, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      arrivals.push_back({Arrival::kBatch, count, envelopes[i], *envelopes[i]});
    }
  }
  void on_repeat(const Envelope& envelope) override {
    arrivals.push_back({Arrival::kRepeat, 0, &envelope, envelope});
  }
  std::vector<Arrival> arrivals;
};

TEST(MessageBusTest, DuplicateArrivesOnceAndThenAsRepeat) {
  EventQueue queue;
  BusConfig config = quiet_bus();
  config.jitter = SimTime{500};
  config.duplicate_probability = 1.0;
  MessageBus bus(queue, config, Rng(9));
  ArrivalLog log;
  bus.attach("b", log);
  constexpr std::size_t kSends = 200;
  for (std::size_t i = 0; i < kSends; ++i) {
    bus.send("a", "b", RoundClosedMsg{});
  }
  queue.run();
  EXPECT_EQ(bus.stats().duplicated, kSends);
  EXPECT_EQ(bus.stats().delivered, 2 * kSends);
  ASSERT_EQ(log.arrivals.size(), 2 * kSends);

  // Per id: exactly one first arrival, then exactly one repeat, no earlier.
  std::vector<int> firsts(kSends, 0);
  std::vector<int> repeats(kSends, 0);
  std::vector<SimTime> first_at(kSends);
  for (const ArrivalLog::Arrival& arrival : log.arrivals) {
    const std::size_t id = arrival.envelope.id.value();
    ASSERT_LT(id, kSends);
    if (arrival.kind == ArrivalLog::Arrival::kRepeat) {
      EXPECT_EQ(firsts[id], 1) << "repeat of id " << id << " before its first";
      EXPECT_GE(arrival.envelope.delivered_at, first_at[id]);
      ++repeats[id];
    } else {
      first_at[id] = arrival.envelope.delivered_at;
      ++firsts[id];
    }
  }
  for (std::size_t id = 0; id < kSends; ++id) {
    EXPECT_EQ(firsts[id], 1) << "id " << id;
    EXPECT_EQ(repeats[id], 1) << "id " << id;
  }
}

TEST(MessageBusTest, SameInstantRepeatSplitsTheBatch) {
  EventQueue queue;
  BusConfig config = quiet_bus();  // jitter 0: both copies in one group
  config.duplicate_probability = 1.0;
  MessageBus bus(queue, config, Rng(4));
  ArrivalLog log;
  bus.attach("b", log);
  const MessageId first = bus.send("a", "b", RoundClosedMsg{});
  const MessageId second = bus.send("a", "b", RoundClosedMsg{});
  queue.run();
  EXPECT_EQ(bus.stats().delivered, 4u);
  using Arrival = ArrivalLog::Arrival;
  ASSERT_EQ(log.arrivals.size(), 4u);
  const std::vector<std::pair<Arrival::Kind, MessageId>> expected = {
      {Arrival::kBatch, first},
      {Arrival::kRepeat, first},
      {Arrival::kBatch, second},
      {Arrival::kRepeat, second}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.arrivals[i].kind, expected[i].first) << "arrival " << i;
    EXPECT_EQ(log.arrivals[i].envelope.id, expected[i].second)
        << "arrival " << i;
    EXPECT_EQ(log.arrivals[i].envelope.delivered_at, SimTime{1000});
  }
  EXPECT_EQ(log.arrivals[0].batch_size, 1u);
  EXPECT_EQ(log.arrivals[2].batch_size, 1u);
}

TEST(MessageBusTest, DeadLetteredPairLeavesNoRepeatBehind) {
  EventQueue queue;
  BusConfig config = quiet_bus();
  config.duplicate_probability = 0.5;
  // Seed 42 duplicates the first two sends and not the next two; the
  // ASSERTs on `duplicated` pin that, so a changed RNG fails loudly.
  MessageBus bus(queue, config, Rng(42));
  ArrivalLog log;
  const AddressId a = bus.intern("a");
  const AddressId b = bus.attach("b", log);

  // A delivered pair shows which two slab slots a pair occupies.
  bus.send(a, b, RoundClosedMsg{});
  ASSERT_EQ(bus.stats().duplicated, 1u);
  queue.run();
  ASSERT_EQ(log.arrivals.size(), 2u);
  const Envelope* pair_slots[] = {log.arrivals[0].slot, log.arrivals[1].slot};

  // The next pair reuses those slots and is dead-lettered in flight.
  bus.send(a, b, RoundClosedMsg{});
  ASSERT_EQ(bus.stats().duplicated, 2u);
  bus.detach(b);
  bus.attach(b, log);
  queue.run();
  EXPECT_EQ(bus.stats().dead_lettered, 2u);
  EXPECT_EQ(log.arrivals.size(), 2u);

  // Two plain messages, in flight together but arriving alone, take the
  // same two slots again; each arrives through on_message.
  const MessageId third = bus.send(a, b, RoundClosedMsg{});
  MessageId fourth;
  TimerCallbacks timers;
  timers.schedule(queue, queue.now() + SimTime{500},
                  [&] { fourth = bus.send(a, b, RoundClosedMsg{}); },
                  bus.attach("timers", timers));
  queue.run();
  ASSERT_EQ(bus.stats().duplicated, 2u);
  ASSERT_EQ(log.arrivals.size(), 4u);
  EXPECT_EQ(log.arrivals[2].envelope.id, third);
  EXPECT_EQ(log.arrivals[3].envelope.id, fourth);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(log.arrivals[i].kind, ArrivalLog::Arrival::kMessage);
    EXPECT_TRUE(log.arrivals[i].slot == pair_slots[0] ||
                log.arrivals[i].slot == pair_slots[1]);
  }
  EXPECT_NE(log.arrivals[2].slot, log.arrivals[3].slot);
}

// ---------------------------------------------------------------------------
// Timers ride the bus's queue but are not messages.

class TimerLog : public Endpoint {
 public:
  void on_message(const Envelope&) override {}
  void on_timer(const Timer& timer) override { fired.push_back(timer); }
  std::vector<Timer> fired;
};

TEST(MessageBusTest, TimersLeaveIdsLatencyAndStatsAlone) {
  // Two buses on one seed send the same messages at the same instants;
  // one of them also fires timers before, at and between the sends.
  // Every message keeps its id and delivery time, BusStats agree, and the
  // sampled batch-size histogram sees the same groups.
  BusConfig config = quiet_bus();
  config.jitter = SimTime{300};
  config.duplicate_probability = 0.3;
  config.drop_probability = 0.2;
  struct World {
    EventQueue queue;
    MessageBus bus;
    obs::ShardTelemetry telemetry{1};
    Recorder recorder;
    TimerCallbacks sender;
    TimerLog log;
    AddressId from = bus.attach("sender", sender);
    AddressId to = bus.attach("b", recorder);
    std::vector<MessageId> ids;
    explicit World(const BusConfig& config) : bus(queue, config, Rng(11)) {
      bus.bind_telemetry(telemetry);
    }
    void send_at(SimTime at) {
      sender.schedule(
          queue, at,
          [this] { ids.push_back(bus.send(from, to, RoundClosedMsg{})); },
          from);
    }
  };
  World plain(config);
  World timed(config);
  const AddressId clock = timed.bus.attach("clock", timed.log);
  std::uint64_t word = 0;
  for (std::int64_t step = 0; step < 40; ++step) {
    const SimTime at{step * 1100};
    timed.queue.schedule_timer(at - SimTime{1},
                               Timer{Timer::Kind::kRetry, clock, word++});
    timed.queue.schedule_timer(at, Timer{Timer::Kind::kRetry, clock, word++});
    plain.send_at(at);
    timed.send_at(at);
  }
  plain.queue.run();
  timed.queue.run();

  EXPECT_EQ(timed.log.fired.size(), 80u);
  ASSERT_EQ(timed.ids.size(), 40u);
  EXPECT_EQ(timed.ids, plain.ids);
  ASSERT_EQ(timed.recorder.received.size(), plain.recorder.received.size());
  for (std::size_t i = 0; i < plain.recorder.received.size(); ++i) {
    EXPECT_EQ(timed.recorder.received[i].id, plain.recorder.received[i].id);
    EXPECT_EQ(timed.recorder.received[i].delivered_at,
              plain.recorder.received[i].delivered_at);
  }
  const BusStats& a = plain.bus.stats();
  const BusStats& b = timed.bus.stats();
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.duplicated, 0u);
  EXPECT_EQ(b.sent, a.sent);
  EXPECT_EQ(b.delivered, a.delivered);
  EXPECT_EQ(b.duplicated, a.duplicated);
  EXPECT_EQ(b.dropped, a.dropped);
  EXPECT_EQ(b.dead_lettered, 0u);
  EXPECT_EQ(
      timed.telemetry.metrics.histogram("fnda_queue_batch_size").count(),
      plain.telemetry.metrics.histogram("fnda_queue_batch_size").count());
}

TEST(MessageBusTest, TimerReachesTheEndpointAtItsTarget) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  TimerLog a;
  TimerLog b;
  bus.attach("a", a);
  const AddressId at_b = bus.attach("b", b);
  queue.schedule_timer(SimTime{70},
                       Timer{Timer::Kind::kAnnounce, at_b, 0xfeedull});
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_TRUE(a.fired.empty());
  ASSERT_EQ(b.fired.size(), 1u);
  EXPECT_EQ(b.fired[0].kind, Timer::Kind::kAnnounce);
  EXPECT_EQ(b.fired[0].target, at_b);
  EXPECT_EQ(b.fired[0].word, 0xfeedull);
  EXPECT_EQ(queue.now(), SimTime{70});
}

TEST(MessageBusTest, TimerWithNothingAttachedIsDropped) {
  EventQueue queue;
  MessageBus bus(queue, quiet_bus(), Rng(1));
  TimerLog log;
  const AddressId gone = bus.attach("gone", log);
  bus.detach(gone);
  const AddressId never = bus.intern("never-attached");
  queue.schedule_timer(SimTime{1}, Timer{Timer::Kind::kRetry, gone, 1});
  queue.schedule_timer(SimTime{2}, Timer{Timer::Kind::kRetry, never, 2});
  queue.schedule_timer(SimTime{3}, Timer{Timer::Kind::kRetry, AddressId{999}, 3});
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_TRUE(log.fired.empty());
  EXPECT_EQ(bus.stats().sent, 0u);
  EXPECT_EQ(bus.stats().dead_lettered, 0u);
}

}  // namespace
}  // namespace fnda
