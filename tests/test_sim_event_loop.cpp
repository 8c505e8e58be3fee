// Unit tests: discrete event loop — the semantic contract of the event core
// (time order, same-tick FIFO, cancellation).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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
