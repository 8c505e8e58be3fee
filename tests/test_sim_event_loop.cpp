// Unit tests: discrete event loop — the semantic contract of the timing
// wheel (time order, same-tick FIFO, batch lifecycle, cancellation).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "util/error.h"

namespace {

using namespace cd;
using sim::EventLoop;

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ScheduleInIsRelative) {
  EventLoop loop;
  sim::SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_in(50, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoopTest, PastTimesClampToNow) {
  EventLoop loop;
  sim::SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto id = loop.schedule_at(10, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.executed(), 0u);
}

TEST(EventLoopTest, CancelAlreadyRunIsSafe) {
  EventLoop loop;
  const auto id = loop.schedule_at(1, [] {});
  loop.run();
  loop.cancel(id);  // no effect, no crash
  loop.schedule_at(2, [] {});
  loop.run();
  EXPECT_EQ(loop.executed(), 2u);
}

TEST(EventLoopTest, RunUntilLeavesLaterEvents) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(20, [&] { ++count; });
  loop.schedule_at(30, [&] { ++count; });
  loop.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoopTest, MaxEventsGuardThrows) {
  EventLoop loop;
  // A self-rescheduling event would run forever.
  std::function<void()> self = [&] { loop.schedule_in(1, self); };
  loop.schedule_at(0, self);
  EXPECT_THROW(loop.run(1000), InvariantError);
}

// --- batched scheduling ------------------------------------------------------

TEST(EventLoopBatchTest, SameSlotCoalescesIntoOneQueueEntry) {
  EventLoop loop;
  std::vector<int> order;
  const auto id1 = loop.schedule_batched(10, 7, [&] { order.push_back(1); });
  const auto id2 = loop.schedule_batched(10, 7, [&] { order.push_back(2); });
  const auto id3 = loop.schedule_batched(10, 7, [&] { order.push_back(3); });
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(id1, id3);
  EXPECT_EQ(loop.pending(), 1u);  // one entry, three items
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.executed(), 3u);  // each item counts
}

TEST(EventLoopBatchTest, BatchRunsAtFirstAppendPosition) {
  // Interleaved with singleton events on the same tick, the whole batch
  // runs where its FIRST item was scheduled; later appends ride along.
  EventLoop loop;
  std::vector<char> order;
  loop.schedule_at(10, [&] { order.push_back('a'); });
  loop.schedule_batched(10, 1, [&] { order.push_back('x'); });
  loop.schedule_at(10, [&] { order.push_back('b'); });
  loop.schedule_batched(10, 1, [&] { order.push_back('y'); });
  loop.schedule_at(10, [&] { order.push_back('c'); });
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'x', 'y', 'b', 'c'}));
}

TEST(EventLoopBatchTest, DistinctKeysKeepDistinctBatchesInCreationOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_batched(5, 100, [&] { order.push_back(1); });
  loop.schedule_batched(5, 200, [&] { order.push_back(10); });
  loop.schedule_batched(5, 100, [&] { order.push_back(2); });
  loop.schedule_batched(5, 200, [&] { order.push_back(20); });
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 20}));
}

TEST(EventLoopBatchTest, SameKeyDifferentTimesAreDifferentBatches) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_batched(20, 7, [&] { order.push_back(2); });
  loop.schedule_batched(10, 7, [&] { order.push_back(1); });
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopBatchTest, PastTimesClampToNowLikeScheduleAt) {
  EventLoop loop;
  sim::SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_batched(10, 3, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventLoopBatchTest, CancelDropsWholeBatch) {
  EventLoop loop;
  int ran = 0;
  const auto id = loop.schedule_batched(10, 1, [&] { ++ran; });
  loop.schedule_batched(10, 1, [&] { ++ran; });
  loop.cancel(id);
  loop.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(loop.executed(), 0u);
}

TEST(EventLoopBatchTest, AppendAfterCancelOpensFreshLiveBatch) {
  EventLoop loop;
  std::vector<int> order;
  const auto dead = loop.schedule_batched(10, 1, [&] { order.push_back(1); });
  loop.cancel(dead);
  const auto live = loop.schedule_batched(10, 1, [&] { order.push_back(2); });
  EXPECT_NE(dead, live);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventLoopBatchTest, CancelFromInsideRunningBatchSkipsRemainder) {
  EventLoop loop;
  std::vector<int> order;
  sim::EventId id = 0;
  id = loop.schedule_batched(10, 1, [&] {
    order.push_back(1);
    loop.cancel(id);  // cancel own batch mid-drain
  });
  loop.schedule_batched(10, 1, [&] { order.push_back(2); });
  loop.schedule_batched(10, 1, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(loop.executed(), 1u);
}

TEST(EventLoopBatchTest, ItemCanCancelAnotherPendingBatch) {
  EventLoop loop;
  bool later_ran = false;
  const auto later = loop.schedule_batched(20, 2, [&] { later_ran = true; });
  loop.schedule_batched(10, 1, [&] { loop.cancel(later); });
  loop.run();
  EXPECT_FALSE(later_ran);
}

TEST(EventLoopBatchTest, AppendFromInsideDrainOpensSecondBatchSameTick) {
  // A batch closes when it starts draining: same-slot appends made by its
  // own items form a NEW batch that still runs this tick, after the first.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_batched(10, 1, [&] {
    order.push_back(1);
    loop.schedule_batched(10, 1, [&] { order.push_back(3); });
  });
  loop.schedule_batched(10, 1, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopBatchTest, RunUntilDrainsDueBatchesAndSplitsLaterAppends) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_batched(10, 1, [&] { order.push_back(1); });
  loop.schedule_batched(10, 1, [&] { order.push_back(2); });
  loop.schedule_batched(30, 1, [&] { order.push_back(9); });

  // Nothing due yet: batches stay queued AND open for appends.
  loop.run_until(5);
  EXPECT_EQ(order.size(), 0u);
  loop.schedule_batched(10, 1, [&] { order.push_back(3); });

  // The t=10 batch (all three items, including the post-run_until append)
  // drains completely; the t=30 batch stays.
  loop.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.pending(), 1u);

  // A batch slot that already ran is closed: a new same-slot append opens a
  // fresh batch at the clamped current time and runs on the next drain.
  loop.schedule_batched(10, 1, [&] { order.push_back(4); });
  loop.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));

  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 9}));
}

TEST(EventLoopBatchTest, MaxEventsCountsEveryBatchItem) {
  {
    EventLoop loop;
    for (int i = 0; i < 5; ++i) loop.schedule_batched(10, 1, [] {});
    EXPECT_THROW(loop.run(4), InvariantError);
  }
  {
    EventLoop loop;
    for (int i = 0; i < 5; ++i) loop.schedule_batched(10, 1, [] {});
    loop.run(5);  // exactly enough
    EXPECT_EQ(loop.executed(), 5u);
  }
}

TEST(EventLoopBatchTest, StressMixedSingletonsAndBatchesKeepInvariants) {
  // Random mix of singleton and batched scheduling: time stays monotonic,
  // items within one (time, key) slot run in append order, and nothing is
  // lost or duplicated.
  EventLoop loop;
  std::uint64_t scheduled = 0;
  std::uint64_t ran = 0;
  sim::SimTime last = -1;
  bool monotonic = true;
  bool slots_in_order = true;
  using Slot = std::pair<sim::SimTime, int>;
  std::map<Slot, int> appended;  // next sequence number to hand out
  std::map<Slot, int> executed;  // next sequence number expected to run

  std::uint64_t state = 0x5EED;
  auto rnd = [&state](std::uint64_t mod) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % mod;
  };

  for (int i = 0; i < 2000; ++i) {
    const auto at = static_cast<sim::SimTime>(rnd(50));
    auto check = [&] {
      ++ran;
      if (loop.now() < last) monotonic = false;
      last = loop.now();
    };
    ++scheduled;
    if (rnd(2) == 0) {
      loop.schedule_at(at, check);
    } else {
      const int key = static_cast<int>(rnd(5));
      const int seq = appended[{at, key}]++;
      loop.schedule_batched(at, static_cast<EventLoop::BatchKey>(key),
                            [&, at, key, seq, check] {
                              check();
                              if (executed[{at, key}]++ != seq) {
                                slots_in_order = false;
                              }
                            });
    }
  }
  loop.run();
  EXPECT_TRUE(monotonic);
  EXPECT_TRUE(slots_in_order);
  EXPECT_EQ(executed, appended);
  EXPECT_EQ(ran, scheduled);
  EXPECT_EQ(loop.executed(), scheduled);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, NowMonotonicThroughChaos) {
  EventLoop loop;
  sim::SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at((i * 37) % 100, [&] {
      if (loop.now() < last) monotonic = false;
      last = loop.now();
    });
  }
  loop.run();
  EXPECT_TRUE(monotonic);
}

}  // namespace
