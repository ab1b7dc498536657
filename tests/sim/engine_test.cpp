#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

namespace ute {
namespace {

TEST(Engine, ProcessesEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.scheduleAt(30, [&] { order.push_back(3); });
  engine.scheduleAt(10, [&] { order.push_back(1); });
  engine.scheduleAt(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30u);
  EXPECT_EQ(engine.eventsProcessed(), 3u);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.scheduleAt(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine engine;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) engine.scheduleAfter(10, chain);
  };
  engine.scheduleAt(0, chain);
  engine.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(engine.now(), 40u);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.scheduleAt(100, [&] {
    EXPECT_THROW(engine.scheduleAt(50, [] {}), UsageError);
  });
  engine.run();
}

TEST(Engine, TimeLimitGuardsRunaways) {
  Engine engine;
  std::function<void()> forever = [&] { engine.scheduleAfter(1000, forever); };
  engine.scheduleAt(0, forever);
  EXPECT_THROW(engine.run(/*maxTime=*/100000), UsageError);
}

TEST(Engine, EmptyRunIsNoop) {
  Engine engine;
  engine.run();
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, EqualTimesStayFifoAcrossSlotReuse) {
  // The first wave frees its slots; the second wave reuses them in the
  // reverse of scheduling order, yet must still run in scheduling order.
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.scheduleAt(1, [&order, i] { order.push_back(i); });
  }
  engine.scheduleAt(2, [&] {
    for (int i = 0; i < 8; ++i) {
      engine.scheduleAt(5, [&order, i] { order.push_back(100 + i); });
    }
  });
  engine.run();
  std::vector<int> expected;
  for (int i = 0; i < 8; ++i) expected.push_back(i);
  for (int i = 0; i < 8; ++i) expected.push_back(100 + i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(engine.eventsProcessed(), 17u);
}

TEST(Engine, ActionMayGrowTheQueueWhileItRuns) {
  // One action schedules far more events than the queue holds, so the
  // slab reallocates under the running action; its captures must
  // survive that, and every event must run once, in time order.
  Engine engine;
  std::vector<Tick> times;
  std::vector<int> captured = {7, 8, 9};
  engine.scheduleAt(10, [&, captured] {
    for (int i = 0; i < 1000; ++i) {
      engine.scheduleAfter(static_cast<Tick>(1000 - i),
                           [&] { times.push_back(engine.now()); });
    }
    EXPECT_EQ(captured, (std::vector<int>{7, 8, 9}));
  });
  engine.run();
  ASSERT_EQ(times.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.front(), 11u);
  EXPECT_EQ(times.back(), 1010u);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RequestStopLeavesRemainingEventsQueued) {
  Engine engine;
  std::vector<int> order;
  engine.scheduleAt(10, [&] {
    order.push_back(1);
    engine.requestStop();
  });
  engine.scheduleAt(10, [&] { order.push_back(2); });
  engine.scheduleAt(20, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(engine.empty());
  EXPECT_EQ(engine.now(), 10u);
  // A later run picks the queue up where the stop left it.
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, ActionsMayCaptureMoveOnlyState) {
  Engine engine;
  int seen = 0;
  auto owned = std::make_unique<int>(41);
  engine.scheduleAt(1, [&seen, p = std::move(owned)] { seen = *p + 1; });
  Engine::Action moved = [&seen, p = std::make_unique<int>(1)] {
    seen += *p;
  };
  engine.scheduleAt(2, std::move(moved));
  engine.run();
  EXPECT_EQ(seen, 43);
}

TEST(Engine, ActionDestroysItsCaptureOnce) {
  const auto token = std::make_shared<int>(0);
  {
    Engine engine;
    engine.scheduleAt(1, [token] {});
    engine.scheduleAt(2, [token] {});
    EXPECT_EQ(token.use_count(), 3);
    engine.run();
    EXPECT_EQ(token.use_count(), 1);  // run actions are destroyed
    engine.scheduleAt(3, [token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // queued ones die with the engine
}

}  // namespace
}  // namespace ute
