// The event-core equivalence guarantee: the (time, seq) heap
// (sim::EventLoop) must be observably identical to the plain priority-queue
// reference scheduler in tests/reference_scheduler.h.
//
// Three layers of evidence:
//  1. A property test interprets randomized schedule/cancel/run programs
//     (with nested scheduling and cancellation from inside callbacks)
//     against both schedulers and demands the exact same execution trace —
//     tags, firing times, clock and pending-count trajectories. One program
//     shape is the campaign's: thousands of events queued before the first
//     run. Failures greedily delta-debug themselves down to a minimal
//     reproducing program.
//  2. Targeted behaviour pins, run against both: same-tick FIFO across
//     scheduling distances, far-future times near kSimTimeMax, schedule_in
//     overflow saturation, cancel of a recycled id, run_until over a
//     cancelled head.
//  3. SmallFn, the callable type every event and per-message callback is
//     stored in: return values, by-reference and move-only arguments,
//     move-only captures destroyed exactly once on the inline and heap
//     paths, and a callable that destroys its own storage while running.
//  4. Whole campaigns: the quickstart battery must reproduce its golden
//     results_digest and capture_digest (tests/campaign_goldens.h) across
//     seeds x shard counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign_goldens.h"
#include "core/parallel.h"
#include "reference_scheduler.h"
#include "sim/callback.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace {

using namespace cd;
using sim::EventLoop;
using sim::ReferenceScheduler;
using sim::SimTime;

// --- randomized differential interpreter -------------------------------------

struct Op {
  enum Kind : std::uint8_t {
    kScheduleAt,
    kScheduleIn,
    kCancel,
    kRunUntil,
    kRun,
  };
  Kind kind = kScheduleAt;
  SimTime t = 0;           // absolute time / delay / run_until bound
  std::size_t ref = 0;     // cancel: index into the ids issued so far
  std::uint32_t tag = 0;   // trace identity; also drives nested behavior
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::kScheduleAt: return "schedule_at";
    case Op::kScheduleIn: return "schedule_in";
    case Op::kCancel: return "cancel";
    case Op::kRunUntil: return "run_until";
    case Op::kRun: return "run";
  }
  return "?";
}

/// One trace entry per executed callback (tag + firing time); run/run_until
/// ops append a sentinel entry carrying the post-run clock and pending
/// count, pinning the run_until clock-advance rule and cancel bookkeeping
/// as well.
struct Entry {
  std::uint32_t tag = 0;
  SimTime at = 0;
  std::size_t pending = 0;  // run markers only

  friend bool operator==(const Entry&, const Entry&) = default;
};

struct Trace {
  std::vector<Entry> entries;
  std::uint64_t executed = 0;
  std::size_t final_pending = 0;
  SimTime final_now = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

constexpr std::uint32_t kRunMarker = 0xFFFFFFFF;
constexpr std::uint32_t kNestedBit = 0x80000000;

/// Interprets `ops` on a fresh scheduler. Callbacks with certain tags
/// re-enter the loop (schedule a nested event, or cancel an earlier id) —
/// behavior derived from the tag alone, so both schedulers see the same
/// nested program iff their execution orders match.
template <typename Loop>
Trace interpret(const std::vector<Op>& ops) {
  Loop loop;
  Trace trace;
  std::vector<sim::EventId> ids;

  struct Ctx {
    Loop& loop;
    Trace& trace;
    std::vector<sim::EventId>& ids;
  } ctx{loop, trace, ids};

  // Shared callback body (value-captured ctx pointer: 16 bytes, inline in
  // SmallFn). Declared as a struct so it can recurse via schedule.
  struct Fire {
    static void run(Ctx* c, std::uint32_t tag) {
      c->trace.entries.push_back({tag, c->loop.now()});
      if ((tag & kNestedBit) == 0) {
        if (tag % 7 == 3) {
          const std::uint32_t nested = tag | kNestedBit;
          const auto delay = static_cast<SimTime>(tag % 50);
          c->ids.push_back(c->loop.schedule_in(
              delay, [c, nested] { Fire::run(c, nested); }));
        }
        if (tag % 11 == 5 && !c->ids.empty()) {
          c->loop.cancel(c->ids[tag % c->ids.size()]);
        }
      }
    }
  };

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kScheduleAt: {
        const std::uint32_t tag = op.tag;
        ids.push_back(
            loop.schedule_at(op.t, [&ctx, tag] { Fire::run(&ctx, tag); }));
        break;
      }
      case Op::kScheduleIn: {
        const std::uint32_t tag = op.tag;
        ids.push_back(
            loop.schedule_in(op.t, [&ctx, tag] { Fire::run(&ctx, tag); }));
        break;
      }
      case Op::kCancel:
        if (!ids.empty()) loop.cancel(ids[op.ref % ids.size()]);
        break;
      case Op::kRunUntil:
        loop.run_until(op.t, 1'000'000);
        trace.entries.push_back({kRunMarker, loop.now(), loop.pending()});
        break;
      case Op::kRun:
        loop.run(1'000'000);
        trace.entries.push_back({kRunMarker, loop.now(), loop.pending()});
        break;
    }
  }
  loop.run(1'000'000);  // drain everything, however far in the future
  trace.executed = loop.executed();
  trace.final_pending = loop.pending();
  trace.final_now = loop.now();
  return trace;
}

/// Times drawn across every magnitude — same-tick collisions, near and
/// mid-range instants, and far-future instants near kSimTimeMax.
SimTime gen_time(Rng& rng) {
  switch (rng.uniform(8)) {
    case 0: return static_cast<SimTime>(rng.uniform(4));        // dense ties
    case 1: return static_cast<SimTime>(rng.uniform(256));
    case 2: return static_cast<SimTime>(rng.uniform(1 << 16));
    case 3: return static_cast<SimTime>(rng.uniform(1u << 24));
    case 4: return static_cast<SimTime>(rng.uniform(1ull << 40));
    case 5: return static_cast<SimTime>(rng.uniform(1ull << 56));
    case 6: return sim::kSimTimeMax - static_cast<SimTime>(rng.uniform(512));
    default: return static_cast<SimTime>(rng.uniform(100'000));
  }
}

std::vector<Op> gen_program(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    op.tag = static_cast<std::uint32_t>(i) & ~kNestedBit;
    const std::uint64_t pick = rng.uniform(100);
    if (pick < 55) {
      op.kind = Op::kScheduleAt;
      op.t = gen_time(rng);
    } else if (pick < 75) {
      op.kind = Op::kScheduleIn;
      // Includes schedule_in(0) and sentinel-huge delays that must saturate.
      op.t = rng.uniform(10) == 0 ? 0 : gen_time(rng);
      if (rng.uniform(50) == 0) op.t = INT64_MAX - 1;
    } else if (pick < 85) {
      op.kind = Op::kCancel;  // may hit pending OR already-fired ids
      op.ref = rng.uniform(1u << 16);
    } else if (pick < 97) {
      op.kind = Op::kRunUntil;
      op.t = gen_time(rng);
    } else {
      op.kind = Op::kRun;
    }
    ops.push_back(op);
  }
  return ops;
}

/// The campaign's shape: start events for thousands of targets queued
/// before anything runs, spread over a 2 h window with tied instants; then
/// run_until windows interleaved with follow-ups seconds out and cancels.
/// The large queue drives the heap's deep sift paths.
std::vector<Op> gen_campaign_program(std::uint64_t seed) {
  constexpr std::size_t kStarts = 6000;
  constexpr std::size_t kOps = 9000;
  constexpr SimTime kWindow = 2 * sim::kHour;
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(kOps);
  SimTime bound = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    Op op;
    op.tag = static_cast<std::uint32_t>(i) & ~kNestedBit;
    const std::uint64_t pick = rng.uniform(10);
    if (i < kStarts) {
      op.kind = Op::kScheduleAt;
      op.t = pick == 0
                 ? static_cast<SimTime>(rng.uniform(64)) * sim::kSecond
                 : static_cast<SimTime>(
                       rng.uniform(static_cast<std::uint64_t>(kWindow)));
    } else if (pick < 5) {
      op.kind = Op::kScheduleIn;
      op.t = static_cast<SimTime>(rng.uniform(4)) * 10 * sim::kSecond +
             static_cast<SimTime>(rng.uniform(2)) *
                 static_cast<SimTime>(rng.uniform(100'000));
    } else if (pick < 7) {
      op.kind = Op::kCancel;
      op.ref = rng.uniform(1u << 16);
    } else {
      op.kind = Op::kRunUntil;
      bound += static_cast<SimTime>(rng.uniform(4 * sim::kSecond));
      op.t = bound;
    }
    ops.push_back(op);
  }
  return ops;
}

bool diverges(const std::vector<Op>& ops) {
  return !(interpret<EventLoop>(ops) == interpret<ReferenceScheduler>(ops));
}

/// Greedy delta-debugging: repeatedly drop chunks (halving the chunk size)
/// while the program still diverges. Cancel ops index ids positionally, so
/// any subsequence is still a valid program.
std::vector<Op> shrink(std::vector<Op> ops) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<Op> candidate;
        candidate.reserve(ops.size() - chunk);
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (diverges(candidate)) {
          ops = std::move(candidate);
          removed_any = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return ops;
}

std::string format_program(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  " << kind_name(op.kind) << " t=" << op.t << " ref=" << op.ref
        << " tag=" << op.tag << "\n";
  }
  return out.str();
}

/// Passes when `ops` runs identically on both schedulers; otherwise fails
/// with the shrunk program.
::testing::AssertionResult matches_reference(std::vector<Op> ops,
                                             std::uint64_t seed) {
  if (!diverges(ops)) return ::testing::AssertionSuccess();
  const std::vector<Op> minimal = shrink(std::move(ops));
  return ::testing::AssertionFailure()
         << "event loop diverges from reference; seed=" << seed
         << "; minimal program (" << minimal.size() << " ops):\n"
         << format_program(minimal);
}

TEST(EventCoreProperty, RandomProgramsMatchReferenceExactly) {
  // ~6 x 2500 ops x ~75% schedule ops (plus nested schedules) comfortably
  // exceeds 10k differentially-checked events.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 99ull, 1337ull, 2020ull}) {
    EXPECT_TRUE(matches_reference(gen_program(seed, 2500), seed));
  }
}

TEST(EventCoreProperty, CampaignShapedProgramsMatchReferenceExactly) {
  for (const std::uint64_t seed : {2ull, 8ull, 31ull}) {
    EXPECT_TRUE(matches_reference(gen_campaign_program(seed), seed));
  }
}

TEST(EventCoreProperty, CancelHeavyProgramsMatchReferenceExactly) {
  // A second distribution: mostly cancels and run_until, catching clock
  // advancement through cancelled-only stretches of the queue.
  for (const std::uint64_t seed : {3ull, 5ull, 11ull}) {
    Rng rng(seed);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < 1500; ++i) {
      Op op;
      op.tag = static_cast<std::uint32_t>(i) & ~kNestedBit;
      const std::uint64_t pick = rng.uniform(10);
      if (pick < 3) {
        op.kind = Op::kScheduleAt;
        op.t = gen_time(rng);
      } else if (pick < 7) {
        op.kind = Op::kCancel;
        op.ref = rng.uniform(1u << 16);
      } else {
        op.kind = Op::kRunUntil;
        op.t = gen_time(rng);
      }
      ops.push_back(op);
    }
    EXPECT_TRUE(matches_reference(std::move(ops), seed));
  }
}

// --- targeted behaviour pins ---------------------------------------------------

template <typename Loop>
class EventCore : public ::testing::Test {};
using Schedulers = ::testing::Types<EventLoop, ReferenceScheduler>;
TYPED_TEST_SUITE(EventCore, Schedulers);

TYPED_TEST(EventCore, SameTickFifoAcrossSchedulingDistances) {
  // A is scheduled 65546 ticks ahead, B for the same tick from t=1000, so
  // from a shorter distance. The older A must still run first.
  TypeParam loop;
  constexpr SimTime target = 65546;
  std::vector<char> order;
  loop.schedule_at(target, [&order] { order.push_back('A'); });
  loop.run_until(1000);
  loop.schedule_at(target, [&order] { order.push_back('B'); });
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
  EXPECT_EQ(loop.now(), target);
}

TYPED_TEST(EventCore, SameTickFifoAcrossStaggeredSchedules) {
  // Ten events for one far-future tick, scheduled from progressively closer
  // times, 2^36 ticks apart. FIFO must still hold.
  TypeParam loop;
  constexpr SimTime target = (SimTime{3} << 40) + 123;
  std::vector<int> order;
  int next = 0;
  // Every 2^36 ticks, schedule one more callback for `target`.
  std::function<void()> step = [&] {
    loop.schedule_at(target, [&order, i = next] { order.push_back(i); });
    ++next;
    if (next < 10) loop.schedule_in(SimTime{1} << 36, step);
  };
  loop.schedule_at(0, step);
  loop.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(loop.now(), target);
}

TYPED_TEST(EventCore, FarFutureTimesRunInOrder) {
  TypeParam loop;
  std::vector<SimTime> fired;
  // One event per byte of SimTime: delta = 2^(8k) + k.
  for (int k = 0; k < 8; ++k) {
    const SimTime at = (SimTime{1} << (8 * k)) + k;
    loop.schedule_at(at, [&fired, &loop] { fired.push_back(loop.now()); });
  }
  loop.run();
  ASSERT_EQ(fired.size(), 8u);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(fired[static_cast<std::size_t>(k)], (SimTime{1} << (8 * k)) + k);
  }
}

TYPED_TEST(EventCore, ScheduleInSaturatesInsteadOfWrapping) {
  // Regression: now_ + delay used to wrap negative for sentinel-large
  // delays, firing the "far future" event immediately.
  TypeParam loop;
  bool far_ran = false;
  bool near_ran = false;
  loop.schedule_at(100, [&] {
    loop.schedule_in(INT64_MAX, [&] { far_ran = true; });
    loop.schedule_in(INT64_MAX - 50, [&] { far_ran = true; });
  });
  loop.schedule_at(200, [&] { near_ran = true; });
  loop.run_until(1'000'000);
  EXPECT_TRUE(near_ran);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_TRUE(far_ran);
  EXPECT_EQ(loop.now(), sim::kSimTimeMax);
}

TYPED_TEST(EventCore, ScheduleAtClampsToSimTimeMax) {
  TypeParam loop;
  SimTime fired_at = -1;
  loop.schedule_at(INT64_MAX, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, sim::kSimTimeMax);
}

TYPED_TEST(EventCore, RunUntilNeverRunsPastBoundOverCancelledHead) {
  // Regression for a defect in the original priority-queue scheduler: with
  // a cancelled tombstone at the head of the queue, run_until tested the
  // bound against the tombstone and then executed the next real event
  // however far past `until` it lay. Both schedulers must stop at the bound
  // and only discard the husk.
  TypeParam loop;
  const auto head = loop.schedule_in(161, [] {});
  loop.cancel(head);
  bool far_ran = false;
  loop.schedule_at(SimTime{1} << 52, [&] { far_ran = true; });
  loop.run_until(61'333);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(loop.now(), 61'333);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(far_ran);
}

TYPED_TEST(EventCore, CancelOfRecycledIdIsInert) {
  // After an event fires, its id must never alias a later event — even
  // though the event loop recycles the underlying node immediately — and
  // cancelling it cancels nothing, so the new event still counts as pending.
  TypeParam loop;
  const auto stale = loop.schedule_at(1, [] {});
  loop.run();
  bool ran = false;
  loop.schedule_at(2, [&] { ran = true; });  // likely reuses the node
  loop.cancel(stale);                        // must NOT cancel the new event
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.executed(), 2u);
}

// --- SmallFn -------------------------------------------------------------------

/// Ballast that pushes a capture list past SmallFn's inline buffer.
using HeapPad = std::array<unsigned char, 64>;

TEST(SmallFn, ReturnsValuesAndForwardsMoveOnlyArguments) {
  sim::SmallFn<std::string(const std::string&, std::unique_ptr<int>)> join =
      [](const std::string& prefix, std::unique_ptr<int> n) {
        return prefix + std::to_string(*n);
      };
  EXPECT_TRUE(join.is_inline());
  EXPECT_EQ(join("id=", std::make_unique<int>(7)), "id=7");

  sim::SmallFn<std::size_t(std::size_t)> fat = [pad = HeapPad{}](
                                                   std::size_t i) {
    return pad.size() + i;
  };
  EXPECT_FALSE(fat.is_inline());
  EXPECT_EQ(fat(3), 67u);
}

TEST(SmallFn, ByReferenceArgumentsAreTheCallersObjects) {
  sim::SmallFn<void(std::vector<int>&, int&)> append =
      [](std::vector<int>& out, int& next) { out.push_back(next++); };
  std::vector<int> out;
  int next = 5;
  append(out, next);
  append(out, next);
  EXPECT_EQ(out, (std::vector<int>{5, 6}));
  EXPECT_EQ(next, 7);
}

/// Counts destructions of the object a move-only capture owns.
struct Tracked {
  explicit Tracked(int* deaths) : deaths(deaths) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { ++*deaths; }
  int* deaths;
};

template <typename Pad>
void expect_capture_dies_exactly_once(bool inline_storage) {
  using Fn = sim::SmallFn<int(int)>;
  const auto make = [](int* deaths) {
    return [owned = std::make_unique<Tracked>(deaths), pad = Pad{}](int x) {
      return x + static_cast<int>(sizeof(pad) > 0);
    };
  };
  int deaths = 0;
  {
    Fn a = make(&deaths);
    EXPECT_EQ(a.is_inline(), inline_storage);
    EXPECT_EQ(a(1), 2);
    Fn b(std::move(a));
    EXPECT_FALSE(a);
    EXPECT_EQ(b(1), 2);
    EXPECT_EQ(deaths, 0) << "moving must relocate, not destroy";

    Fn c = make(&deaths);
    c = std::move(b);  // destroys c's own capture, takes b's
    EXPECT_EQ(deaths, 1);
    EXPECT_FALSE(b);
    EXPECT_EQ(c(2), 3);
    c.reset();
    EXPECT_EQ(deaths, 2);
    c.reset();  // empty: no-op
    EXPECT_EQ(deaths, 2);

    Fn d = make(&deaths);
    EXPECT_EQ(deaths, 2);
  }
  EXPECT_EQ(deaths, 3) << "d's capture dies with d; moved-from a and b own "
                          "nothing";
}

TEST(SmallFn, MoveOnlyCaptureDiesExactlyOnceInline) {
  expect_capture_dies_exactly_once<std::array<unsigned char, 8>>(true);
}

TEST(SmallFn, MoveOnlyCaptureDiesExactlyOnceOnHeap) {
  expect_capture_dies_exactly_once<HeapPad>(false);
}

template <typename Pad>
void expect_callable_may_destroy_itself(bool inline_storage) {
  // The shape of RecursiveResolver's upstream ports: the handler of a UDP
  // port unbinds that port, destroying the SmallFn it is running from. The
  // call must touch nothing of the SmallFn afterwards (ASan checks it).
  std::map<int, sim::SmallFn<void(int)>> handlers;
  int seen = 0;
  handlers[1] = [&handlers, &seen, pad = Pad{}](int x) {
    seen = x + static_cast<int>(sizeof(pad) > 0);
    handlers.erase(1);
  };
  EXPECT_EQ(handlers.at(1).is_inline(), inline_storage);
  handlers.at(1)(41);
  EXPECT_EQ(seen, 42);
  EXPECT_TRUE(handlers.empty());
}

TEST(SmallFn, CallableMayDestroyItsOwnStorageInline) {
  expect_callable_may_destroy_itself<std::array<unsigned char, 8>>(true);
}

TEST(SmallFn, CallableMayDestroyItsOwnStorageOnHeap) {
  expect_callable_may_destroy_itself<HeapPad>(false);
}

// --- whole campaigns -----------------------------------------------------------

TEST(EventCoreCampaign, DigestsMatchGoldensAcrossSeedsAndShards) {
  // The full 5-seed battery lives in test_sim_batched; this covers both
  // shard counts under the capture-everything config (and is the body TSan
  // re-runs via the eventcore label: every worker thread drives its own
  // event loop).
  for (const std::uint64_t seed : {7ull, 42ull}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      const golden::CampaignGolden& want = golden::full_fat(seed, shards);
      const core::ShardedResults out = core::run_sharded_experiment(
          golden::small_spec(seed), golden::full_fat_config(shards));
      ASSERT_GT(out.merged.records.size(), 0u);
      EXPECT_EQ(core::results_digest(out.merged), want.results)
          << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(core::capture_digest(out.merged.capture), want.capture)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

}  // namespace
