// Discrete-event scheduler: a min-heap of (time, tie-break key, action).
//
// Every event carries a caller-supplied EventKey derived from the event's
// *content* (source ordinal + per-source sequence), and events at one
// timestamp fire in key order. The execution order is therefore a pure
// function of the simulated system, not of the order in which handlers
// happened to schedule their events.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/small_function.hpp"
#include "common/units.hpp"

namespace greenps {

// Content-derived tie-break key: hi = (class << 56) | source ordinal,
// lo = per-source sequence number. Ties at one timestamp resolve by
// (hi, lo), so the pair must be unique per queue per timestamp.
struct EventKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

class EventQueue {
 public:
  // Inline-storage callable: scheduling an event never heap-allocates for
  // the closure (a too-large capture fails to compile instead of silently
  // falling back to the heap). 80 bytes covers the simulator's largest
  // closure (delivery: this + broker + sub + shared_ptr + hops + 2 times)
  // with room to spare.
  static constexpr std::size_t kActionCapacity = 80;
  using Action = SmallFunction<void(), kActionCapacity>;

  // next_time() when the heap is empty.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  void schedule_keyed(SimTime time, EventKey key, Action action);

  // Execute events in (time, key) order until the queue is drained or the
  // next event is after `end`; leaves now() == end. Returns the number of
  // events executed.
  std::size_t run_until(SimTime end);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kNoEvent : heap_.top().time;
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t executed() const { return executed_; }

  void clear();

 private:
  struct Event {
    SimTime time;
    EventKey key;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.key.hi != b.key.hi) return a.key.hi > b.key.hi;
      return a.key.lo > b.key.lo;
    }
  };

  void pop_and_run();

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  SimTime now_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace greenps
