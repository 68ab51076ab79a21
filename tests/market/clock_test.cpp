#include "market/clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "timer_callbacks.h"

namespace fnda {
namespace {

/// Records what the queue hands its sink, in order: each timer's word,
/// and a log line per timer and per delivery run.
class RecordingSink final : public EventQueue::DeliverySink {
 public:
  explicit RecordingSink(EventQueue& queue) { queue.set_delivery_sink(this); }

  void deliver_run(SimTime, const EventQueue::Delivery* run,
                   std::size_t count) override {
    std::string line = "run";
    for (std::size_t i = 0; i < count; ++i) {
      line += " " + std::to_string(run[i].slot);
    }
    log.push_back(line);
  }
  void fire(const Timer& timer) override {
    words.push_back(timer.word);
    log.push_back("timer " + std::to_string(timer.word));
  }

  std::vector<std::uint64_t> words;
  std::vector<std::string> log;
};

void schedule(EventQueue& queue, std::int64_t at, std::uint64_t word) {
  queue.schedule_timer(SimTime{at},
                       Timer{Timer::Kind::kRetry, AddressId{0}, word});
}

using Words = std::vector<std::uint64_t>;

TEST(SimTimeTest, ArithmeticAndFactories) {
  EXPECT_EQ(SimTime::millis(2).micros, 2000);
  EXPECT_EQ(SimTime::seconds(1).micros, 1'000'000);
  EXPECT_EQ((SimTime{3} + SimTime{4}).micros, 7);
  EXPECT_EQ((SimTime{9} - SimTime{4}).micros, 5);
  EXPECT_LT(SimTime{1}, SimTime{2});
}

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue queue;
  RecordingSink sink(queue);
  schedule(queue, 30, 3);
  schedule(queue, 10, 1);
  schedule(queue, 20, 2);
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(sink.words, (Words{1, 2, 3}));
  EXPECT_EQ(queue.now(), SimTime{30});
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue queue;
  RecordingSink sink(queue);
  for (std::uint64_t i = 0; i < 5; ++i) schedule(queue, 100, i);
  queue.run();
  EXPECT_EQ(sink.words, (Words{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  // A handler schedules relative to the queue's clock while it runs.
  EventQueue queue;
  TimerCallbacks timers;
  queue.set_delivery_sink(&timers);
  SimTime observed{-1};
  timers.schedule(queue, SimTime{50}, [&] {
    timers.schedule(queue, queue.now() + SimTime{25},
                    [&] { observed = queue.now(); });
  });
  queue.run();
  EXPECT_EQ(observed, SimTime{75});
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue queue;
  TimerCallbacks timers;
  queue.set_delivery_sink(&timers);
  bool ran = false;
  timers.schedule(queue, SimTime{100}, [&] {
    timers.schedule(queue, SimTime{10}, [&] {
      ran = true;
      EXPECT_EQ(queue.now(), SimTime{100});
    });
  });
  queue.run();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue queue;
  RecordingSink sink(queue);
  EXPECT_FALSE(queue.step());
  schedule(queue, 1, 0);
  EXPECT_TRUE(queue.step());
  EXPECT_FALSE(queue.step());
  EXPECT_EQ(sink.words, (Words{0}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue queue;
  RecordingSink sink(queue);
  schedule(queue, 10, 10);
  schedule(queue, 20, 20);
  schedule(queue, 30, 30);
  EXPECT_EQ(queue.run_until(SimTime{20}), 2u);
  EXPECT_EQ(sink.words, (Words{10, 20}));
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueTest, PushBehindDrainPositionStaysOrdered) {
  // After a partial run_until, now() lags the drain position inside the
  // current bucket.  A push landing between the two (here: at the exact
  // instant just executed) must still fire before everything later.
  EventQueue queue;
  RecordingSink sink(queue);
  schedule(queue, 10, 1);
  schedule(queue, 200, 3);
  EXPECT_EQ(queue.run_until(SimTime{50}), 1u);
  EXPECT_EQ(queue.now(), SimTime{10});
  schedule(queue, 10, 2);
  queue.run();
  EXPECT_EQ(sink.words, (Words{1, 2, 3}));
}

TEST(EventQueueTest, OrderHoldsAcrossBucketAndHorizonBoundaries) {
  // Events straddling wheel buckets (256 us) and the wheel horizon
  // (~262 ms) interleave back into exact time order.
  EventQueue queue;
  RecordingSink sink(queue);
  const Words times = {300'000'000, 255, 256,     1'000'000,  257,
                       262'144,     3,   262'143, 500'000'000};
  for (const std::uint64_t t : times) {
    schedule(queue, static_cast<std::int64_t>(t), t);
  }
  EXPECT_EQ(queue.run(), times.size());
  Words expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sink.words, expected);
}

TEST(EventQueueTest, NextTimePeeksWithoutExecuting) {
  EventQueue queue;
  RecordingSink sink(queue);
  EXPECT_EQ(queue.next_time(), std::nullopt);
  schedule(queue, 42, 42);
  schedule(queue, 7, 7);
  ASSERT_TRUE(queue.next_time().has_value());
  EXPECT_EQ(queue.next_time()->micros, 7);
  EXPECT_TRUE(sink.words.empty());
  EXPECT_EQ(queue.now(), SimTime{0});  // peeking does not advance the clock
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(sink.words, (Words{7, 42}));
  EXPECT_EQ(queue.next_time(), std::nullopt);
}

TEST(EventQueueTest, RunUntilBoundsBatchedSameInstantWork) {
  // Entries sharing a timestamp drain as one batch; the `until` bound must
  // still cut between instants, never mid-check into the next one.
  EventQueue queue;
  RecordingSink sink(queue);
  for (std::uint32_t slot = 0; slot < 3; ++slot) {
    queue.schedule_delivery(SimTime{10}, slot, 1);
  }
  schedule(queue, 11, 11);
  EXPECT_EQ(queue.run_until(SimTime{10}), 3u);
  EXPECT_EQ(sink.log, (std::vector<std::string>{"run 0 1 2"}));
  EXPECT_EQ(queue.run_until(SimTime{11}), 1u);
  EXPECT_EQ(sink.log, (std::vector<std::string>{"run 0 1 2", "timer 11"}));
}

TEST(EventQueueTest, TimerBreaksASameInstantDeliveryRun) {
  // A delivery, a timer and a delivery at one instant with one key: the
  // timer ends the first run, and the sink sees all three in push order.
  EventQueue queue;
  RecordingSink sink(queue);
  queue.schedule_delivery(SimTime{40}, 0, 5);
  schedule(queue, 40, 9);
  queue.schedule_delivery(SimTime{40}, 1, 5);
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(sink.log,
            (std::vector<std::string>{"run 0", "timer 9", "run 1"}));
}

TEST(EventQueueTest, RunCapGuardsAgainstLoops) {
  EventQueue queue;
  TimerCallbacks timers;
  queue.set_delivery_sink(&timers);
  std::function<void()> reschedule = [&] {
    timers.schedule(queue, queue.now() + SimTime{1}, reschedule);
  };
  timers.schedule(queue, SimTime{0}, reschedule);
  EXPECT_EQ(queue.run(100), 100u);
  EXPECT_GE(queue.pending(), 1u);
}

}  // namespace
}  // namespace fnda
