#include "sim/event_loop.h"

#include <algorithm>

#include "util/error.h"

namespace cd::sim {

EventLoop::~EventLoop() {
  for (Node* chunk : chunks_) delete[] chunk;
}

EventId EventLoop::schedule_at(SimTime at, Callback fn) {
  Node* n = alloc_node();
  n->fn = std::move(fn);
  n->queued = true;
  ++live_;
  const auto t = static_cast<Key>(std::min(std::max(at, now_), kSimTimeMax));
  heap_push(t << 64 | seq_++, n);
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
  // A node off the heap is on the free list and its generation happens to
  // match a guessed id — nothing to do (ids of executed events never match
  // again; recycle bumped the generation). A cancelled node stays in the
  // heap as a tombstone until it reaches the top.
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
  std::uint64_t n = 0;
  while (!keys_.empty()) {
    const auto at = static_cast<SimTime>(keys_.front() >> 64);
    if (at > until) break;
    Node* node = nodes_.front();
    heap_pop();
    node->queued = false;
    if (node->cancelled) {
      // A tombstone is pruned without moving the observable clock.
      recycle_node(node);
      continue;
    }
    --live_;
    now_ = at;
    Callback fn = std::move(node->fn);
    // Recycle before invoking: the callback may schedule (reusing this node)
    // or cancel its own id (generation bumped -> safe no-op).
    recycle_node(node);
    ++executed_;
    fn();
    CD_ENSURE(++n <= max_events, what);
  }
  // The observable clock is the last executed event, or the run_until bound.
  if (advance_to_until) now_ = std::max(now_, until);
}

// --- node pool ---------------------------------------------------------------

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

// --- 4-ary min-heap ----------------------------------------------------------

void EventLoop::heap_push(Key key, Node* node) {
  std::size_t i = keys_.size();
  keys_.push_back(key);
  nodes_.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (keys_[parent] < key) break;  // keys are unique (seq)
    keys_[i] = keys_[parent];
    nodes_[i] = nodes_[parent];
    i = parent;
  }
  keys_[i] = key;
  nodes_[i] = node;
}

void EventLoop::heap_pop() {
  const Key last = keys_.back();
  Node* const last_node = nodes_.back();
  keys_.pop_back();
  nodes_.pop_back();
  const std::size_t size = keys_.size();
  if (size == 0) return;
  // Walk the hole at the root down along the smallest children to a leaf,
  // then sift the old last entry up from there. It was scheduled late, so
  // it usually belongs near the bottom: this costs fewer compares than
  // testing it against every level's smallest child on the way down.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= size) break;
    std::size_t best = first;
    if (first + kArity <= size) {
      // A full family: a two-round tournament, the first round independent.
      const std::size_t a = keys_[first + 1] < keys_[first] ? first + 1 : first;
      const std::size_t b =
          keys_[first + 3] < keys_[first + 2] ? first + 3 : first + 2;
      best = keys_[b] < keys_[a] ? b : a;
    } else {
      for (std::size_t c = first + 1; c < size; ++c) {
        if (keys_[c] < keys_[best]) best = c;
      }
    }
    keys_[i] = keys_[best];
    nodes_[i] = nodes_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (keys_[parent] < last) break;
    keys_[i] = keys_[parent];
    nodes_[i] = nodes_[parent];
    i = parent;
  }
  keys_[i] = last;
  nodes_[i] = last_node;
}

}  // namespace cd::sim
