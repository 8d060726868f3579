// Unit tests for the discrete-event scheduler and periodic timers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace graybox::sim {
namespace {

TEST(Scheduler, StartsAtTimeZeroIdle) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0u);
  EXPECT_TRUE(sched.idle());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, FifoAtEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    sched.schedule_at(5, [&order, i] { order.push_back(i); });
  sched.run_all();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  SimTime seen = 0;
  sched.schedule_at(100, [&] {
    sched.schedule_after(5, [&] { seen = sched.now(); });
  });
  sched.run_all();
  EXPECT_EQ(seen, 105u);
}

TEST(Scheduler, NowAdvancesDuringExecution) {
  Scheduler sched;
  SimTime t1 = 0, t2 = 0;
  sched.schedule_at(7, [&] { t1 = sched.now(); });
  sched.schedule_at(9, [&] { t2 = sched.now(); });
  sched.run_all();
  EXPECT_EQ(t1, 7u);
  EXPECT_EQ(t2, 9u);
}

TEST(Scheduler, RunUntilExecutesInclusiveAndSetsNow) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(10, [&] { ++ran; });
  sched.schedule_at(20, [&] { ++ran; });
  sched.schedule_at(21, [&] { ++ran; });
  sched.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.now(), 20u);
  sched.run_until(25);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.now(), 25u);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(10, [&] { ++ran; });
  sched.run_for(5);
  EXPECT_EQ(ran, 0);
  sched.run_for(5);
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, RunForSaturatesInsteadOfWrappingPastNever) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(40, [&] { ++ran; });
  sched.run_for(10);
  EXPECT_EQ(sched.now(), 10u);
  // now_ + kNever would wrap around to 9 and trip run_until's t >= now
  // precondition; run_for must clamp to the end of simulated time instead
  // and still execute everything pending.
  sched.run_for(kNever);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.now(), kNever);
}

TEST(Scheduler, RunForExactlyToNeverBoundary) {
  Scheduler sched;
  sched.run_for(100);
  // duration == kNever - now_ is the largest non-wrapping duration; both
  // it and anything larger land exactly on kNever.
  sched.run_for(kNever - sched.now());
  EXPECT_EQ(sched.now(), kNever);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int ran = 0;
  const EventId id = sched.schedule_at(10, [&] { ++ran; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run_all();
  EXPECT_EQ(ran, 0);
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler sched;
  const EventId id = sched.schedule_at(10, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelAfterExecutionFails) {
  Scheduler sched;
  const EventId id = sched.schedule_at(10, [] {});
  sched.run_all();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelBogusIdFails) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(0));
  EXPECT_FALSE(sched.cancel(12345));
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler sched;
  const EventId a = sched.schedule_at(10, [] {});
  sched.schedule_at(20, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_all();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sched.schedule_after(1, chain);
  };
  sched.schedule_at(0, chain);
  sched.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), 9u);
}

TEST(Scheduler, ObserverRunsAfterEveryEvent) {
  Scheduler sched;
  std::vector<SimTime> observed;
  sched.add_observer([&](SimTime t) { observed.push_back(t); });
  sched.schedule_at(3, [] {});
  sched.schedule_at(5, [] {});
  sched.run_all();
  EXPECT_EQ(observed, (std::vector<SimTime>{3, 5}));
}

TEST(Scheduler, ObserverNotCalledForCancelled) {
  Scheduler sched;
  int observed = 0;
  sched.add_observer([&](SimTime) { ++observed; });
  const EventId id = sched.schedule_at(3, [] {});
  sched.cancel(id);
  sched.schedule_at(4, [] {});
  sched.run_all();
  EXPECT_EQ(observed, 1);
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.schedule_at(i, [] {});
  sched.run_all();
  EXPECT_EQ(sched.executed(), 5u);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(1, [&] { ++ran; });
  sched.schedule_at(2, [&] { ++ran; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, TombstonesStayBoundedByLiveEvents) {
  // The re-arm pattern every wrapper timer uses: schedule a far-future
  // event, cancel it, repeat. Lazy deletion alone would accumulate one
  // tombstone per iteration forever; compaction keeps the count bounded
  // by max(live events, compaction threshold).
  Scheduler sched;
  sched.schedule_at(1'000'000, [] {});  // one live far-future event
  for (int i = 0; i < 10'000; ++i) {
    const EventId id = sched.schedule_at(500'000, [] {});
    sched.cancel(id);
  }
  EXPECT_LT(sched.tombstones(), 128u);
  EXPECT_EQ(sched.pending(), 1u);
  // The surviving event still runs.
  int ran = 0;
  sched.schedule_at(1'000'001, [&] { ++ran; });
  sched.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(Scheduler, CompactionPreservesOrderAndCancellation) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(10, [&] { order.push_back(1); });
  const EventId doomed = sched.schedule_at(20, [&] { order.push_back(2); });
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.cancel(doomed);
  // Force a compaction pass with churn well past the threshold.
  for (int i = 0; i < 200; ++i) sched.cancel(sched.schedule_at(40, [] {}));
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, RemoveObserverByHandle) {
  Scheduler sched;
  int a_count = 0, b_count = 0;
  const ObserverId a = sched.add_observer([&](SimTime) { ++a_count; });
  sched.add_observer([&](SimTime) { ++b_count; });
  EXPECT_EQ(sched.observer_count(), 2u);

  sched.schedule_at(1, [] {});
  sched.run_all();
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 1);

  EXPECT_TRUE(sched.remove_observer(a));
  EXPECT_FALSE(sched.remove_observer(a));  // already gone
  EXPECT_EQ(sched.observer_count(), 1u);

  sched.schedule_at(2, [] {});
  sched.run_all();
  EXPECT_EQ(a_count, 1);  // no longer invoked
  EXPECT_EQ(b_count, 2);
}

TEST(Scheduler, ObserverMayRemoveItselfDuringDispatch) {
  Scheduler sched;
  int once = 0, always = 0;
  ObserverId self = 0;
  self = sched.add_observer([&](SimTime) {
    ++once;
    EXPECT_TRUE(sched.remove_observer(self));
  });
  sched.add_observer([&](SimTime) { ++always; });
  sched.schedule_at(1, [] {});
  sched.schedule_at(2, [] {});
  sched.run_all();
  EXPECT_EQ(once, 1);    // fired once, then unhooked itself mid-dispatch
  EXPECT_EQ(always, 2);  // the later slot was still dispatched both times
  EXPECT_EQ(sched.observer_count(), 1u);
}

// --- PeriodicTimer -------------------------------------------------------

TEST(PeriodicTimer, FiresEveryPeriod) {
  Scheduler sched;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sched, 10, [&] { fires.push_back(sched.now()); });
  timer.start();
  sched.run_until(35);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(timer.fired(), 3u);
}

TEST(PeriodicTimer, StoppedTimerDoesNotFire) {
  Scheduler sched;
  int fires = 0;
  PeriodicTimer timer(sched, 10, [&] { ++fires; });
  timer.start();
  sched.run_until(15);
  timer.stop();
  sched.run_until(100);
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RestartAfterStop) {
  Scheduler sched;
  int fires = 0;
  PeriodicTimer timer(sched, 10, [&] { ++fires; });
  timer.start();
  sched.run_until(10);
  timer.stop();
  timer.start();
  sched.run_until(20);
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, ZeroPeriodNormalizedToOneTick) {
  Scheduler sched;
  int fires = 0;
  PeriodicTimer timer(sched, 0, [&] { ++fires; });
  EXPECT_EQ(timer.period(), 1u);
  timer.start();
  sched.run_until(5);
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, SetPeriodRearms) {
  Scheduler sched;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sched, 10, [&] { fires.push_back(sched.now()); });
  timer.start();
  sched.run_until(10);
  timer.set_period(3);
  sched.run_until(19);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 13, 16, 19}));
}

TEST(PeriodicTimer, SetPeriodInsideTickDoesNotDoubleArm) {
  // Regression: set_period called from inside the tick callback (adaptive
  // period retuning) used to arm a second tick chain — on_tick re-armed
  // unconditionally after fn_ returned — doubling the rate on every
  // retune. The in-progress tick must simply re-arm with the new period.
  Scheduler sched;
  std::vector<SimTime> fires;
  std::unique_ptr<PeriodicTimer> timer;
  timer = std::make_unique<PeriodicTimer>(sched, 10, [&] {
    fires.push_back(sched.now());
    timer->set_period(7);
  });
  timer->start();
  sched.run_until(40);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 17, 24, 31, 38}));
}

TEST(PeriodicTimer, RestartInsideTickKeepsSingleChain) {
  // stop()+start() inside the tick re-arms explicitly; on_tick must not
  // arm again on top of that.
  Scheduler sched;
  std::vector<SimTime> fires;
  std::unique_ptr<PeriodicTimer> timer;
  timer = std::make_unique<PeriodicTimer>(sched, 10, [&] {
    fires.push_back(sched.now());
    timer->stop();
    timer->start();
  });
  timer->start();
  sched.run_until(30);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
}

TEST(PeriodicTimer, StartIsIdempotent) {
  Scheduler sched;
  int fires = 0;
  PeriodicTimer timer(sched, 10, [&] { ++fires; });
  timer.start();
  timer.start();
  sched.run_until(10);
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTimer, DestructorCancelsPendingTick) {
  Scheduler sched;
  int fires = 0;
  {
    PeriodicTimer timer(sched, 10, [&] { ++fires; });
    timer.start();
  }
  sched.run_until(100);
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace graybox::sim
