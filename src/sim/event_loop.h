// Discrete-event simulation core: a hierarchical timing wheel of intrusive,
// pool-recycled event nodes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace cd::sim {

using EventId = std::uint64_t;

/// Single-threaded discrete event loop over a hierarchical timing wheel of
/// discrete SimTime ticks: 8 levels x 256 slots with per-level occupancy
/// bitmaps, intrusive pooled event nodes, and small-buffer-optimized
/// callbacks — zero steady-state heap allocations per scheduled event.
/// Events scheduled for the same time run in scheduling order (stable).
/// Cancellation is O(1).
///
/// Besides singleton events, the loop supports *batched* scheduling
/// (schedule_batched): every append to the same open (time, key) batch
/// shares one queue position, so a caller fanning N callbacks into one tick
/// pays one scheduling operation instead of N. Batch items run back-to-back,
/// in append order, at the queue position of the batch's first append; each
/// item counts as one executed event toward the max_events guard.
///
/// The observable semantics — execution order, same-tick FIFO,
/// cancel-from-inside-batch, now()/executed() trajectories — are checked
/// against a plain priority-queue reference scheduler on randomized
/// interleavings (tests/reference_scheduler.h, tests/test_sim_event_core.cpp).
class EventLoop {
 public:
  /// Scheduling callback. Move-only; callables up to SmallFn::kInlineSize
  /// bytes are stored inline (no heap allocation on the scheduling path).
  using Callback = SmallFn;

  /// Caller-chosen grouping key for schedule_batched (e.g. a destination
  /// host identity). Only equality matters; the key never influences
  /// ordering between different batches.
  using BatchKey = std::uint64_t;

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

  /// Appends `fn` to the batch identified by (at, key), creating the batch
  /// — one queue position — on first use. `at` clamps like schedule_at. All
  /// appends to one batch return the same EventId; cancel(id) cancels the
  /// whole batch (from outside, or from inside a running batch, in which
  /// case the remaining items are skipped). A batch closes when it runs or
  /// is cancelled: later appends to the same (at, key) open a fresh batch
  /// that runs at its own (later) queue position, including appends made
  /// while the batch itself is draining.
  EventId schedule_batched(SimTime at, BatchKey key, Callback fn);

  /// Prevent a pending event (or whole batch) from running. Safe on
  /// already-run ids.
  void cancel(EventId id);

  /// Runs events until the queue drains. `max_events` guards against
  /// runaway self-scheduling loops (throws InvariantError when exceeded);
  /// every batch item counts individually.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `until`; leaves later events queued and
  /// advances now() to `until`. Batches due by `until` drain completely;
  /// later batches stay open for further appends.
  void run_until(SimTime until, std::uint64_t max_events = UINT64_MAX);

  /// Pending queue entries (a batch counts once, whatever its size).
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Events executed so far; each batch item counts as one.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Slot {
    SimTime at;
    BatchKey key;
    friend bool operator==(const Slot&, const Slot&) = default;
  };
  struct SlotHash {
    std::size_t operator()(const Slot& s) const {
      std::uint64_t h = static_cast<std::uint64_t>(s.at) * 0x9E3779B97F4A7C15ULL;
      h ^= s.key + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  static constexpr int kLevels = 8;      // 8 x 8 bits covers every SimTime
  static constexpr int kSlotBits = 8;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;  // 256
  static constexpr std::size_t kNodesPerChunk = 64;

  /// Intrusive event node: wheel-slot linkage (slot lists are kept in
  /// scheduling order, the same-tick FIFO), the SBO callback (singletons) or
  /// the pooled item vector (batches). Recycled through a free list; `gen`
  /// invalidates stale EventIds on reuse.
  struct Node {
    SimTime at = 0;
    Node* next = nullptr;
    std::uint32_t index = 0;  // position in the node pool (id encoding)
    std::uint32_t gen = 0;
    bool queued = false;     // linked into a wheel slot
    bool draining = false;   // batch currently executing its items
    bool cancelled = false;
    bool is_batch = false;
    BatchKey key = 0;
    Callback fn;
    std::vector<Callback> items;  // batch payload; capacity recycled
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
  void wheel_cascade(int level, int slot);
  /// Advances now_ to the next due (non-empty level-0) slot at time
  /// <= `until`, cascading along the way. Returns false when nothing is due
  /// by `until` (now_ is then left at min(until, its previous value) — the
  /// caller restores the observable clock).
  bool wheel_advance(SimTime until);
  bool pop_one(std::uint64_t& n, std::uint64_t max_events, const char* what,
               SimTime until, SimTime& last_exec);
  void close_batch(SimTime at, BatchKey key, const Node* node);

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
  using OpenBatchMap = std::unordered_map<Slot, Node*, SlotHash>;
  OpenBatchMap open_batches_;
  std::vector<OpenBatchMap::node_type> open_batch_pool_;
};

}  // namespace cd::sim
