#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/inline_function.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {
namespace {

TEST(TimeTest, UnitArithmetic) {
  EXPECT_EQ(Microseconds(1), 1000 * kNanosecond);
  EXPECT_EQ(Milliseconds(12), 12000 * kMicrosecond);
  EXPECT_EQ(Seconds(1), 1000 * kMillisecond);
  EXPECT_EQ(Hours(2), 120 * kMinute);
  EXPECT_EQ(ToMicroseconds(Microseconds(2600)), 2600);
  EXPECT_EQ(ToMilliseconds(Milliseconds(130)), 130);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(Nanoseconds(500)), "500 ns");
  EXPECT_EQ(FormatDuration(Microseconds(122)), "122 us");
  EXPECT_EQ(FormatDuration(Milliseconds(12)), "12 ms");
  EXPECT_EQ(FormatDuration(Seconds(30)), "30 s");
  EXPECT_EQ(FormatDuration(-Microseconds(5)), "-5 us");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 17);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(0, 9))];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(RngTest, NormalDurationRespectsFloor) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GE(rng.NormalDuration(0, Microseconds(100), 0), 0);
  }
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(19);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(23);
  (void)parent_copy.NextU64();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.NextU64() == parent_copy.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(300, [&]() { order.push_back(3); });
  queue.Schedule(100, [&]() { order.push_back(1); });
  queue.Schedule(200, [&]() { order.push_back(2); });
  while (!queue.empty()) {
    SimTime when = 0;
    queue.PopNext(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtSameTime) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  while (!queue.empty()) {
    queue.PopNext(nullptr)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.Schedule(10, [&]() { ran = true; });
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));  // double-cancel reports failure
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId early = queue.Schedule(10, []() {});
  queue.Schedule(20, []() {});
  queue.Cancel(early);
  EXPECT_EQ(queue.NextTime(), 20);
}

TEST(EventQueueTest, CancelBetweenNextTimeAndPopRetargetsTheMin) {
  EventQueue queue;
  bool late_ran = false;
  const EventId early = queue.Schedule(10, []() {});
  queue.Schedule(20, [&]() { late_ran = true; });
  EXPECT_EQ(queue.NextTime(), 10);  // caches the minimum
  EXPECT_TRUE(queue.Cancel(early));
  SimTime when = 0;
  queue.PopNext(&when)();
  EXPECT_EQ(when, 20);
  EXPECT_TRUE(late_ran);
}

TEST(EventQueueTest, CancelWhilePoppingSameInstant) {
  // An event cancels a same-instant sibling that is already past NextTime() but not yet
  // popped: the sibling must not run and the cancel must report success.
  EventQueue queue;
  bool b_ran = false;
  EventId b = kInvalidEventId;
  bool cancel_ok = false;
  queue.Schedule(10, [&]() { cancel_ok = queue.Cancel(b); });
  b = queue.Schedule(10, [&]() { b_ran = true; });
  queue.Schedule(10, []() {});
  while (!queue.empty()) {
    queue.PopNext(nullptr)();
  }
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(b_ran);
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue queue;
  const EventId id = queue.Schedule(5, []() {});
  queue.PopNext(nullptr)();
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, SameInstantFifoAcrossWheelHeapBoundary) {
  // Two events for the same instant, one scheduled while that instant was beyond the wheel
  // horizon (far heap) and one scheduled once it was inside (wheel). Insertion order must
  // still decide the tie, and both structures must actually have been used.
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(Milliseconds(100), [&]() { order.push_back(1); });  // far → heap
  for (SimTime t = Milliseconds(10); t <= Milliseconds(90); t += Milliseconds(10)) {
    queue.Schedule(t, []() {});  // stepping events drag the wheel base forward
  }
  for (int i = 0; i < 9; ++i) {
    queue.PopNext(nullptr)();
  }
  queue.Schedule(Milliseconds(100), [&]() { order.push_back(2); });  // near → wheel
  while (!queue.empty()) {
    queue.PopNext(nullptr)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GT(queue.wheel_pops(), 0u);
  EXPECT_GT(queue.far_heap_pops(), 0u);
}

TEST(EventQueueTest, SlabReuseDoesNotRecycleStaleGeneration) {
  EventQueue queue;
  const EventId stale = queue.Schedule(10, []() {});
  EXPECT_TRUE(queue.Cancel(stale));
  // The freed slot is reused; the old handle must not be able to touch the new event.
  bool ran = false;
  const EventId fresh = queue.Schedule(10, [&]() { ran = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(queue.Cancel(stale));
  queue.PopNext(nullptr)();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancelReclaimsCapturedResourcesImmediately) {
  EventQueue queue;
  auto resource = std::make_shared<int>(7);
  const EventId id = queue.Schedule(Milliseconds(500), [resource]() {});
  EXPECT_EQ(resource.use_count(), 2);
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_EQ(resource.use_count(), 1);  // not "when the heap entry is popped, eventually"
}

TEST(EventQueueTest, OversizedCaptureFallsBackToHeapAndStillRuns) {
  EventQueue queue;
  std::array<char, 128> big{};  // larger than InlineFunction::kInlineBytes
  big[0] = 42;
  char seen = 0;
  queue.Schedule(1, [big, &seen]() { seen = big[0]; });
  queue.PopNext(nullptr)();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueueTest, MillionCancelledRtoTimersHoldBoundedMemory) {
  // The TCP-lite pattern that used to leak: re-arm a far (500 ms) timer, cancel it on the
  // next ack, a million times. Slots must be reused and stale far-heap entries compacted.
  EventQueue queue;
  SimTime now = 0;
  EventId armed = kInvalidEventId;
  for (int i = 0; i < 1'000'000; ++i) {
    if (armed != kInvalidEventId) {
      EXPECT_TRUE(queue.Cancel(armed));
    }
    now += Microseconds(3);
    armed = queue.Schedule(now + Milliseconds(500), []() {});
  }
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_LE(queue.slab_slots(), 64u);        // slot reuse, not a million records
  EXPECT_LE(queue.far_heap_entries(), 256u);  // stale entries compacted away
  EXPECT_GT(queue.far_heap_compactions(), 0u);
  EXPECT_TRUE(queue.Cancel(armed));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, DeterministicAcrossIdenticalOperationSequences) {
  auto run = [](std::vector<SimTime>* pops) {
    EventQueue queue;
    Rng rng(99);
    std::vector<EventId> ids;
    SimTime now = 0;
    for (int i = 0; i < 5000; ++i) {
      const int op = static_cast<int>(rng.UniformInt(0, 3));
      if (op <= 1 || queue.empty()) {
        ids.push_back(queue.Schedule(now + rng.UniformInt(0, Milliseconds(40)), []() {}));
      } else if (op == 2) {
        queue.Cancel(ids[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(ids.size()) - 1))]);
      } else {
        SimTime when = 0;
        queue.PopNext(&when)();
        now = when;
        pops->push_back(when);
      }
    }
    while (!queue.empty()) {
      SimTime when = 0;
      queue.PopNext(&when)();
      pops->push_back(when);
    }
  };
  std::vector<SimTime> a;
  std::vector<SimTime> b;
  run(&a);
  run(&b);
  EXPECT_EQ(a, b);
}

TEST(EventQueueTest, SmallWheelConfigStillOrdersCorrectly) {
  // A deliberately tiny wheel (8 buckets of 1.024 us) forces constant wheel↔heap traffic;
  // the (time, seq) contract must be unaffected by the geometry.
  EventQueue::Config config;
  config.wheel_bucket_width = 1 << 10;
  config.wheel_bucket_count = 8;
  EventQueue queue(config);
  Rng rng(5);
  std::vector<SimTime> times;
  for (int i = 0; i < 500; ++i) {
    const SimTime at = rng.UniformInt(0, Microseconds(200));
    times.push_back(at);
    queue.Schedule(at, []() {});
  }
  std::vector<SimTime> popped;
  while (!queue.empty()) {
    SimTime when = 0;
    queue.PopNext(&when)();
    popped.push_back(when);
  }
  std::sort(times.begin(), times.end());
  EXPECT_EQ(popped, times);
}

TEST(InlineFunctionTest, MoveTransfersOwnership) {
  int hits = 0;
  InlineFunction f = [&hits]() { ++hits; };
  InlineFunction g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move): post-move state is part of the contract
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, ResetReleasesCaptures) {
  auto resource = std::make_shared<int>(1);
  InlineFunction f = [resource]() {};
  EXPECT_EQ(resource.use_count(), 2);
  f.Reset();
  EXPECT_EQ(resource.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim;
  SimTime seen = -1;
  sim.After(Microseconds(50), [&]() { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, Microseconds(50));
  EXPECT_EQ(sim.Now(), Microseconds(50));
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int ran = 0;
  sim.After(Microseconds(10), [&]() { ++ran; });
  sim.After(Microseconds(99), [&]() { ++ran; });
  sim.After(Microseconds(101), [&]() { ++ran; });
  const uint64_t count = sim.RunUntil(Microseconds(100));
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), Microseconds(100));
  EXPECT_TRUE(sim.has_pending_events());
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      sim.After(Microseconds(1), recurse);
    }
  };
  sim.After(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Microseconds(4));
}

TEST(SimulationTest, StopHaltsRun) {
  Simulation sim;
  int ran = 0;
  sim.After(1, [&]() {
    ++ran;
    sim.Stop();
  });
  sim.After(2, [&]() { ++ran; });
  sim.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.has_pending_events());
}

TEST(SimulationTest, PeriodicFiresAndCancels) {
  Simulation sim;
  int fired = 0;
  auto cancel = SchedulePeriodic(&sim, Milliseconds(1), Milliseconds(2), [&]() { ++fired; });
  sim.RunUntil(Milliseconds(10));  // fires at 1,3,5,7,9
  EXPECT_EQ(fired, 5);
  cancel();
  sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(fired, 5);
}

TEST(SimulationTest, PeriodicCancelFromInsideAction) {
  Simulation sim;
  int fired = 0;
  std::function<void()> cancel;
  cancel = SchedulePeriodic(&sim, Milliseconds(1), Milliseconds(1), [&]() {
    if (++fired == 3) {
      cancel();  // self-cancel mid-callback must stick
    }
  });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace ctms
