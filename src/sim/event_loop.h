// Discrete-event simulation core: a hierarchical timing wheel of intrusive,
// pool-recycled event nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace cd::sim {

using EventId = std::uint64_t;

/// Single-threaded discrete event loop over a hierarchical timing wheel of
/// discrete SimTime ticks: 8 levels x 256 slots with per-level occupancy
/// bitmaps, intrusive pooled event nodes, and small-buffer-optimized
/// callbacks — zero steady-state heap allocations per scheduled event.
/// Every scheduled event is one node holding one callback. Events scheduled
/// for the same time run in scheduling order (stable), whatever wheel level
/// they entered at. Cancellation is O(1).
///
/// The observable semantics — execution order, same-tick FIFO,
/// now()/executed()/pending() trajectories — are checked against a plain
/// priority-queue reference scheduler on randomized interleavings
/// (tests/reference_scheduler.h, tests/test_sim_event_core.cpp).
class EventLoop {
 public:
  /// Scheduling callback. Move-only; callables up to SmallFn::kInlineSize
  /// bytes are stored inline (no heap allocation on the scheduling path).
  using Callback = SmallFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (clamped to [now, kSimTimeMax]).
  /// Returns an id usable with cancel().
  EventId schedule_at(SimTime at, Callback fn);

  /// Schedule `fn` after `delay` from now. Negative delays clamp to zero and
  /// sentinel-large delays saturate at kSimTimeMax instead of wrapping.
  EventId schedule_in(SimTime delay, Callback fn);

  /// Prevent a pending event from running. Safe on already-run ids.
  void cancel(EventId id);

  /// Runs events until the queue drains. `max_events` guards against
  /// runaway self-scheduling loops (throws InvariantError when exceeded).
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `until`; leaves later events queued and
  /// advances now() to `until`.
  void run_until(SimTime until, std::uint64_t max_events = UINT64_MAX);

  /// Scheduled events that have neither run nor been cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  static constexpr int kLevels = 8;      // 8 x 8 bits covers every SimTime
  static constexpr int kSlotBits = 8;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;  // 256
  static constexpr std::size_t kNodesPerChunk = 64;

  /// Intrusive event node: wheel-slot linkage (slot lists are kept in
  /// scheduling order, the same-tick FIFO) and the SBO callback. Recycled
  /// through a free list; `gen` invalidates stale EventIds on reuse.
  struct Node {
    SimTime at = 0;
    Node* next = nullptr;
    std::uint32_t index = 0;  // position in the node pool (id encoding)
    std::uint32_t gen = 0;
    bool queued = false;     // linked into a wheel slot
    bool cancelled = false;
    Callback fn;
  };

  struct WheelSlot {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  [[nodiscard]] static EventId node_id(const Node* n) {
    return (static_cast<EventId>(n->gen) << 32) |
           static_cast<EventId>(n->index + 1);
  }

  [[nodiscard]] SimTime clamp_at(SimTime at) const;
  void run_impl(SimTime until, bool advance_to_until,
                std::uint64_t max_events, const char* what);

  Node* alloc_node();
  void recycle_node(Node* n);
  [[nodiscard]] Node* node_for(EventId id);

  void wheel_place(Node* n);
  /// Unlinks the slot's nodes onto cascade_scratch_, in list order.
  void wheel_collect(int level, int slot);
  /// Advances now_ to the next due (non-empty level-0) slot at time
  /// <= `until`, cascading along the way. Returns false when nothing is due
  /// by `until` (now_ is then left at min(until, its previous value) — the
  /// caller restores the observable clock).
  bool wheel_advance(SimTime until);
  bool pop_one(std::uint64_t& n, std::uint64_t max_events, const char* what,
               SimTime until, SimTime& last_exec);

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;

  // The slot array is ~32 KiB; everything else is pooled and reaches a
  // steady state where scheduling allocates nothing.
  WheelSlot slots_[kLevels][kSlotsPerLevel] = {};
  std::uint64_t bitmap_[kLevels][kSlotsPerLevel / 64] = {};
  std::size_t live_ = 0;  // queued, non-cancelled nodes
  std::vector<Node*> chunks_;
  Node* free_nodes_ = nullptr;
  std::vector<Node*> cascade_scratch_;
};

}  // namespace cd::sim
