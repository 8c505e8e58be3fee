#include "sim/event_loop.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace cd::sim {
namespace {

// --- 256-bit occupancy bitmap helpers (4 x u64 per wheel level) --------------

void bit_set(std::uint64_t bm[4], int i) { bm[i >> 6] |= 1ull << (i & 63); }
void bit_clear(std::uint64_t bm[4], int i) { bm[i >> 6] &= ~(1ull << (i & 63)); }
bool bit_test(const std::uint64_t bm[4], int i) {
  return (bm[i >> 6] >> (i & 63)) & 1u;
}

/// Lowest set bit with index >= `from` (from may be 256), or -1.
int next_bit(const std::uint64_t bm[4], int from) {
  for (int w = from >> 6; w < 4; ++w) {
    std::uint64_t word = bm[w];
    if (w == (from >> 6)) word &= ~std::uint64_t{0} << (from & 63);
    if (word != 0) return w * 64 + std::countr_zero(word);
  }
  return -1;
}

/// Any set bit with index <= `upto` (upto in [0, 255]).
bool any_bit_le(const std::uint64_t bm[4], int upto) {
  for (int w = 0; w <= (upto >> 6); ++w) {
    std::uint64_t word = bm[w];
    if (w == (upto >> 6) && (upto & 63) != 63) {
      word &= (std::uint64_t{1} << ((upto & 63) + 1)) - 1;
    }
    if (word != 0) return true;
  }
  return false;
}

/// Wheel level of an event `delta` ticks ahead of the cursor: the index of
/// its highest non-zero byte (level 0 for delta 0).
int level_of(std::uint64_t delta) {
  return delta == 0 ? 0 : (63 - std::countl_zero(delta)) >> 3;
}

}  // namespace

EventLoop::~EventLoop() {
  for (Node* chunk : chunks_) delete[] chunk;
}

SimTime EventLoop::clamp_at(SimTime at) const {
  return std::min(std::max(at, now_), kSimTimeMax);
}

EventId EventLoop::schedule_at(SimTime at, Callback fn) {
  Node* n = alloc_node();
  n->at = clamp_at(at);
  n->fn = std::move(fn);
  wheel_place(n);
  return node_id(n);
}

EventId EventLoop::schedule_in(SimTime delay, Callback fn) {
  delay = std::max<SimTime>(0, delay);
  // Saturating add: a sentinel-large delay must pin to the far future, not
  // wrap SimTime negative and fire immediately.
  const SimTime at =
      delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay;
  return schedule_at(at, std::move(fn));
}

void EventLoop::cancel(EventId id) {
  Node* n = node_for(id);
  // A node off the wheel is on the free list and its generation happens to
  // match a guessed id — nothing to do (ids of executed events never match
  // again; recycle bumped the generation).
  if (n == nullptr || !n->queued || n->cancelled) return;
  n->cancelled = true;
  --live_;
}

void EventLoop::run(std::uint64_t max_events) {
  run_impl(kSimTimeMax, /*advance_to_until=*/false, max_events,
           "EventLoop::run exceeded max_events");
}

void EventLoop::run_until(SimTime until, std::uint64_t max_events) {
  run_impl(std::min(until, kSimTimeMax), /*advance_to_until=*/true, max_events,
           "EventLoop::run_until exceeded max_events");
}

void EventLoop::run_impl(SimTime until, bool advance_to_until,
                         std::uint64_t max_events, const char* what) {
  SimTime last_exec = now_;
  std::uint64_t n = 0;
  if (until >= now_) {
    while (pop_one(n, max_events, what, until, last_exec)) {
    }
  }
  // The cursor may sit past the last *executed* event (it advanced through
  // cancelled husks or up to the bound while searching). The observable
  // clock is the last executed event, or the run_until bound.
  now_ = advance_to_until ? std::max(last_exec, until) : last_exec;
}

// --- wheel internals ---------------------------------------------------------

EventLoop::Node* EventLoop::alloc_node() {
  if (free_nodes_ == nullptr) {
    Node* chunk = new Node[kNodesPerChunk];
    chunks_.push_back(chunk);
    const auto base =
        static_cast<std::uint32_t>((chunks_.size() - 1) * kNodesPerChunk);
    for (std::size_t i = kNodesPerChunk; i-- > 0;) {
      chunk[i].index = base + static_cast<std::uint32_t>(i);
      chunk[i].next = free_nodes_;
      free_nodes_ = &chunk[i];
    }
  }
  Node* n = free_nodes_;
  free_nodes_ = n->next;
  n->next = nullptr;
  return n;
}

void EventLoop::recycle_node(Node* n) {
  n->fn.reset();
  n->queued = n->cancelled = false;
  ++n->gen;  // invalidates every EventId handed out for this incarnation
  n->next = free_nodes_;
  free_nodes_ = n;
}

EventLoop::Node* EventLoop::node_for(EventId id) {
  const std::uint64_t low = id & 0xFFFFFFFFull;
  if (low == 0) return nullptr;
  const std::size_t index = static_cast<std::size_t>(low - 1);
  if (index >= chunks_.size() * kNodesPerChunk) return nullptr;
  Node* n = &chunks_[index / kNodesPerChunk][index % kNodesPerChunk];
  if (n->gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return n;
}

void EventLoop::wheel_place(Node* n) {
  const auto at = static_cast<std::uint64_t>(n->at);
  const int level = level_of(static_cast<std::uint64_t>(n->at - now_));
  const int slot = static_cast<int>((at >> (level * kSlotBits)) & 0xFF);
  WheelSlot& s = slots_[level][slot];
  n->next = nullptr;
  if (s.tail != nullptr) {
    s.tail->next = n;
  } else {
    s.head = n;
  }
  s.tail = n;
  bit_set(bitmap_[level], slot);
  n->queued = true;
  ++live_;
}

void EventLoop::wheel_collect(int level, int slot) {
  WheelSlot& s = slots_[level][slot];
  if (s.head == nullptr) return;
  for (Node* n = s.head; n != nullptr; n = n->next) {
    cascade_scratch_.push_back(n);
  }
  s.head = s.tail = nullptr;
  bit_clear(bitmap_[level], slot);
}

bool EventLoop::wheel_advance(SimTime until) {
  for (;;) {
    const auto unow = static_cast<std::uint64_t>(now_);
    const int pos0 = static_cast<int>(unow & 0xFF);
    // Events due at exactly now_ (the current slot drains fully before the
    // cursor moves, so anything here is due, not stale).
    if (bit_test(bitmap_[0], pos0)) return true;

    // Ahead in the current level-0 rotation: jump straight to the slot (no
    // window boundary sits between, so nothing can cascade in front of it).
    const int s0 = next_bit(bitmap_[0], pos0 + 1);
    if (s0 >= 0) {
      const auto t = static_cast<SimTime>((unow & ~std::uint64_t{0xFF}) |
                                          static_cast<std::uint64_t>(s0));
      if (t > until) {
        now_ = until;  // same rotation: no boundary crossed, nothing to cascade
        return false;
      }
      now_ = t;
      return true;
    }

    // Earliest upcoming boundary that makes any occupied slot due: for each
    // level, either the entry of an occupied slot ahead in its current
    // rotation, or — for occupied slots at/behind the current position
    // (content wrapped into the next rotation) — the level's rotation wrap.
    SimTime best = INT64_MAX;
    for (int level = 0; level < kLevels; ++level) {
      const int shift = level * kSlotBits;
      const int pos = static_cast<int>((unow >> shift) & 0xFF);
      if (level >= 1) {
        const int s = next_bit(bitmap_[level], pos + 1);
        if (s >= 0) {
          // Preserve the bytes above this level; at the top level there are
          // none (a shift by shift+kSlotBits == 64 would be UB).
          const int up = shift + kSlotBits;
          const std::uint64_t high = up >= 64 ? 0 : (unow >> up) << up;
          const auto t = static_cast<SimTime>(
              high | (static_cast<std::uint64_t>(s) << shift));
          best = std::min(best, t);
        }
      }
      if (level + 1 < kLevels && any_bit_le(bitmap_[level], pos)) {
        const int up = (level + 1) * kSlotBits;
        const auto t = static_cast<SimTime>(((unow >> up) + 1) << up);
        best = std::min(best, t);
      }
      // level == kLevels-1 wrapped content is impossible: top-level slot
      // indices cover the full kSimTimeMax range without wrapping.
    }
    if (best == INT64_MAX) return false;  // wheel is empty; cursor untouched
    if (best > until) {
      // Every occupied slot becomes due past the bound. Jumping the cursor
      // to `until` crosses only content-free windows, so no cascades.
      now_ = until;
      return false;
    }
    const auto old = static_cast<std::uint64_t>(now_);
    now_ = best;
    // Cascade every slot the cursor just entered. "Entered" means the
    // position byte at that level (or any byte above it — a full wrap of
    // this level) changed. Collecting the entered slots top-down, each in
    // list order, yields scheduling order for every tick: a same-`at` node
    // sits at a higher level only if it was scheduled earlier (a larger
    // delta for the same absolute time). One REVERSE pass then prepends each
    // node to its target slot, so the group keeps that order and lands ahead
    // of same-`at` nodes already placed below, which were scheduled later
    // still. Placing slot by slot instead would let a lower level's younger
    // group jump ahead. A cascaded node never lands in an entered slot: its
    // delta is below that slot's span.
    cascade_scratch_.clear();
    for (int level = kLevels - 1; level >= 1; --level) {
      if (((old ^ static_cast<std::uint64_t>(now_)) >>
           (level * kSlotBits)) != 0) {
        wheel_collect(level, static_cast<int>(
                                 (static_cast<std::uint64_t>(now_) >>
                                  (level * kSlotBits)) &
                                 0xFF));
      }
    }
    for (auto it = cascade_scratch_.rbegin(); it != cascade_scratch_.rend();
         ++it) {
      Node* n = *it;
      const auto at = static_cast<std::uint64_t>(n->at);
      const int lv = level_of(static_cast<std::uint64_t>(n->at - now_));
      const int sl = static_cast<int>((at >> (lv * kSlotBits)) & 0xFF);
      WheelSlot& target = slots_[lv][sl];
      n->next = target.head;
      target.head = n;
      if (target.tail == nullptr) target.tail = n;
      bit_set(bitmap_[lv], sl);
    }
  }
}

bool EventLoop::pop_one(std::uint64_t& n, std::uint64_t max_events,
                        const char* what, SimTime until, SimTime& last_exec) {
  for (;;) {
    if (!wheel_advance(until)) return false;
    const int pos0 = static_cast<int>(static_cast<std::uint64_t>(now_) & 0xFF);
    WheelSlot& slot = slots_[0][pos0];
    Node* node = slot.head;
    CD_ENSURE(node != nullptr && node->at == now_,
              "EventLoop: wheel slot/time invariant violated");
    slot.head = node->next;
    if (slot.head == nullptr) {
      slot.tail = nullptr;
      bit_clear(bitmap_[0], pos0);
    }
    node->queued = false;
    if (node->cancelled) {
      // A cancelled node is pruned in place and does not advance the
      // observable clock (last_exec stays put; run_impl restores now_).
      recycle_node(node);
      continue;
    }
    --live_;
    last_exec = now_;
    Callback fn = std::move(node->fn);
    // Recycle before invoking: the callback may schedule (reusing this node)
    // or cancel its own id (generation bumped -> safe no-op).
    recycle_node(node);
    ++executed_;
    fn();
    CD_ENSURE(++n <= max_events, what);
    return true;
  }
}

}  // namespace cd::sim
