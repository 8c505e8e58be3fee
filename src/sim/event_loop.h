// Discrete-event simulation core: a (time, seq) min-heap over intrusive,
// pool-recycled event nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace cd::sim {

using EventId = std::uint64_t;

/// Single-threaded discrete event loop: an implicit 4-ary min-heap keyed by
/// (time, scheduling sequence) over intrusive pooled event nodes with
/// small-buffer-optimized callbacks — zero steady-state heap allocations per
/// scheduled event. Every scheduled event is one node holding one callback.
/// Events scheduled for the same time run in scheduling order (the sequence
/// number breaks the tie), and a pop costs O(log n) however sparse the
/// schedule is. Cancellation is an O(1) tombstone.
///
/// The observable semantics — execution order, same-tick FIFO,
/// now()/executed()/pending() trajectories — are checked against a plain
/// priority-queue reference scheduler on randomized interleavings
/// (tests/reference_scheduler.h, tests/test_sim_event_core.cpp).
class EventLoop {
 public:
  /// Scheduling callback. Move-only; callables up to SmallFn's kInlineSize
  /// bytes are stored inline (no heap allocation on the scheduling path).
  using Callback = SmallFn<void()>;

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
  static constexpr std::size_t kNodesPerChunk = 64;
  static constexpr std::size_t kArity = 4;  // children per heap entry

  /// Heap order: `at << 64 | seq`, so one integer compare orders by time and
  /// then by scheduling order (same-tick FIFO).
  using Key = unsigned __int128;

  /// Intrusive event node holding the SBO callback. Recycled through a free
  /// list; `gen` invalidates stale EventIds on reuse.
  struct Node {
    Node* next = nullptr;     // free-list link
    std::uint32_t index = 0;  // position in the node pool (id encoding)
    std::uint32_t gen = 0;
    bool queued = false;      // referenced by a heap entry
    bool cancelled = false;
    Callback fn;
  };

  [[nodiscard]] static EventId node_id(const Node* n) {
    return (static_cast<EventId>(n->gen) << 32) |
           static_cast<EventId>(n->index + 1);
  }

  void run_impl(SimTime until, bool advance_to_until,
                std::uint64_t max_events, const char* what);

  Node* alloc_node();
  void recycle_node(Node* n);
  [[nodiscard]] Node* node_for(EventId id);

  void heap_push(Key key, Node* node);
  void heap_pop();

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t seq_ = 0;  // scheduling counter: the key's tie-break

  // Everything is pooled and reaches a steady state where scheduling
  // allocates nothing. The heap keeps keys and nodes in parallel arrays, so
  // the sift compares read only keys: a family of 4 is 64 bytes.
  std::vector<Key> keys_;
  std::vector<Node*> nodes_;  // nodes_[i] is the event keyed keys_[i]
  std::size_t live_ = 0;  // queued, non-cancelled nodes
  std::vector<Node*> chunks_;
  Node* free_nodes_ = nullptr;
};

}  // namespace cd::sim
