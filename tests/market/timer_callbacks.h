// Test-only closures behind typed timers.
//
// The queue holds only plain data: a timer is a kind, a target address
// and one word, and the endpoint at the target decides what it means.  A
// test whose timer must do arbitrary work (schedule more, send, throw)
// stores the closure here and schedules a timer whose word indexes it.
// The helper is a queue sink, for a queue with no bus, and an endpoint,
// for a bus it is attached to.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "market/bus.h"
#include "market/clock.h"

namespace fnda {

class TimerCallbacks final : public EventQueue::DeliverySink, public Endpoint {
 public:
  /// Runs `callback` when the queue reaches `at`.  Behind a bus, `target`
  /// must be the address this helper is attached at.
  void schedule(EventQueue& queue, SimTime at, std::function<void()> callback,
                AddressId target = AddressId{0}) {
    callbacks_.push_back(std::move(callback));
    queue.schedule_timer(
        at, Timer{Timer::Kind::kRetry, target, callbacks_.size() - 1});
  }

  void deliver_run(SimTime, const EventQueue::Delivery*, std::size_t) override {
  }
  void fire(const Timer& timer) override { callbacks_[timer.word](); }
  void on_message(const Envelope&) override {}
  void on_timer(const Timer& timer) override { callbacks_[timer.word](); }

 private:
  // A deque keeps a running closure in place while it schedules another.
  std::deque<std::function<void()>> callbacks_;
};

}  // namespace fnda
