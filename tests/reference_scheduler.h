// Reference scheduler for the event-core property tests: a plain
// std::priority_queue ordered by (time, scheduling order), with tombstone
// cancellation and side-table batches. It has the same interface and the
// same observable semantics as EventLoop — execution order, same-tick
// FIFO, batch lifecycle, cancel-from-inside-batch, now()/executed()/pending()
// trajectories — in the most direct form, so randomized programs can compare
// the timing wheel against it step by step (tests/test_sim_event_core.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "util/error.h"

namespace cd::sim {

class ReferenceScheduler {
 public:
  using Callback = EventLoop::Callback;
  using BatchKey = EventLoop::BatchKey;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const {
    return queue_.size() - std::min(queue_.size(), cancelled_.size());
  }

  EventId schedule_at(SimTime at, Callback fn) {
    const EventId id = next_id_++;
    queue_.push(Event{clamp(at), id, std::move(fn)});
    return id;
  }

  EventId schedule_in(SimTime delay, Callback fn) {
    delay = std::max<SimTime>(0, delay);
    return schedule_at(
        delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay,
        std::move(fn));
  }

  EventId schedule_batched(SimTime at, BatchKey key, Callback fn) {
    const SimTime t = clamp(at);
    const auto [slot, inserted] = open_.try_emplace(Slot{t, key}, 0);
    if (!inserted) {
      batches_.at(slot->second).items.push_back(std::move(fn));
      return slot->second;
    }
    const EventId id = next_id_++;
    slot->second = id;
    Batch& batch = batches_[id];
    batch.at = t;
    batch.key = key;
    batch.items.push_back(std::move(fn));
    queue_.push(Event{t, id, {}});
    return id;
  }

  void cancel(EventId id) {
    cancelled_.insert(id);
    // A cancelled batch stops accepting appends: a later schedule_batched on
    // the same slot opens a fresh, live batch.
    const auto it = batches_.find(id);
    if (it != batches_.end()) close(it->second.at, it->second.key, id);
  }

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
      if (cancelled_.erase(top.id) > 0) {
        batches_.erase(top.id);
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
    Callback fn;  // empty for batch entries (items live in batches_)
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };
  struct Batch {
    SimTime at = 0;
    BatchKey key = 0;
    std::vector<Callback> items;
  };
  struct Slot {
    SimTime at;
    BatchKey key;
    friend bool operator==(const Slot&, const Slot&) = default;
  };
  struct SlotHash {
    std::size_t operator()(const Slot& s) const {
      return std::hash<SimTime>{}(s.at) * 31 + std::hash<BatchKey>{}(s.key);
    }
  };

  [[nodiscard]] SimTime clamp(SimTime at) const {
    return std::min(std::max(at, now_), kSimTimeMax);
  }

  void close(SimTime at, BatchKey key, EventId id) {
    const auto it = open_.find(Slot{at, key});
    if (it != open_.end() && it->second == id) open_.erase(it);
  }

  bool pop_one(std::uint64_t& n, std::uint64_t max_events) {
    while (!queue_.empty()) {
      // top() is const; moving out is safe because the pop follows at once.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (cancelled_.erase(ev.id) > 0) {
        batches_.erase(ev.id);
        continue;
      }
      now_ = ev.at;
      const auto it = batches_.find(ev.id);
      if (it == batches_.end()) {
        ++executed_;
        ev.fn();
        CD_ENSURE(++n <= max_events, "ReferenceScheduler: max_events");
        return true;
      }
      // Close the slot before draining, so appends made by items open a new
      // batch; an item cancelling the running batch skips the remainder.
      Batch batch = std::move(it->second);
      batches_.erase(it);
      close(batch.at, batch.key, ev.id);
      for (Callback& item : batch.items) {
        ++executed_;
        item();
        CD_ENSURE(++n <= max_events, "ReferenceScheduler: max_events");
        if (cancelled_.erase(ev.id) > 0) break;
      }
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
  std::unordered_map<EventId, Batch> batches_;
  std::unordered_map<Slot, EventId, SlotHash> open_;
};

}  // namespace cd::sim
