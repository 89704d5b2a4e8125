#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

#include "obs/clock.hpp"

namespace greenps {

void EventQueue::schedule_keyed(SimTime time, EventKey key, Action action) {
  assert(time >= now_);
  heap_.push(Event{time, key, std::move(action)});
}

void EventQueue::pop_and_run() {
  // Move the action out before popping so it can schedule new events.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  now_ = ev.time;
  // Publish sim time to the obs clock so log lines and trace events
  // emitted from inside event handlers carry the simulated timestamp.
  obs::set_sim_time_us(now_);
  ev.action();
  ++executed_;
}

std::size_t EventQueue::run_until(SimTime end) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.top().time <= end) {
    pop_and_run();
    ++count;
  }
  now_ = end;
  obs::clear_sim_time();
  return count;
}

void EventQueue::clear() {
  heap_ = {};
  now_ = 0;
  executed_ = 0;
}

}  // namespace greenps
