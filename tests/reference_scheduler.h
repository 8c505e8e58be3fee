// Reference scheduler for the event-core property tests: a plain
// std::priority_queue ordered by (time, scheduling order), with tombstone
// cancellation. It has the same interface and the same observable
// semantics as EventLoop — execution order, same-tick FIFO,
// now()/executed()/pending() trajectories — in the most direct form, so
// randomized programs can compare the event loop against it step by step
// (tests/test_sim_event_core.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "util/error.h"

namespace cd::sim {

class ReferenceScheduler {
 public:
  using Callback = EventLoop::Callback;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return live_.size(); }

  EventId schedule_at(SimTime at, Callback fn) {
    const EventId id = next_id_++;
    queue_.push(Event{clamp(at), id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  EventId schedule_in(SimTime delay, Callback fn) {
    delay = std::max<SimTime>(0, delay);
    return schedule_at(
        delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay,
        std::move(fn));
  }

  /// Only a queued event has anything to cancel; ids that already ran (or
  /// were never issued) leave the scheduler untouched.
  void cancel(EventId id) { live_.erase(id); }

  void run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (pop_one(n, max_events)) {
    }
  }

  void run_until(SimTime until, std::uint64_t max_events = UINT64_MAX) {
    until = std::min(until, kSimTimeMax);
    std::uint64_t n = 0;
    while (!queue_.empty()) {
      // Prune a cancelled head before the bound check, so a tombstone due
      // before `until` never lets a later live event run past it.
      const Event& top = queue_.top();
      if (!live_.contains(top.id)) {
        queue_.pop();
        continue;
      }
      if (top.at > until || !pop_one(n, max_events)) break;
    }
    now_ = std::max(now_, until);
  }

 private:
  struct Event {
    SimTime at;
    EventId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };

  [[nodiscard]] SimTime clamp(SimTime at) const {
    return std::min(std::max(at, now_), kSimTimeMax);
  }

  bool pop_one(std::uint64_t& n, std::uint64_t max_events) {
    while (!queue_.empty()) {
      // top() is const; moving out is safe because the pop follows at once.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (live_.erase(ev.id) == 0) continue;  // cancelled tombstone
      now_ = ev.at;
      ++executed_;
      ev.fn();
      CD_ENSURE(++n <= max_events, "ReferenceScheduler: max_events");
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> live_;  // queued, not cancelled
};

}  // namespace cd::sim
