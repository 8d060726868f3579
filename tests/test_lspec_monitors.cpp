// Unit tests for the TME Spec monitors (ME1/ME2/ME3/Invariant I/Mutual
// Belief) driven with hand-built snapshots, plus the program-transition
// monitors on live processes.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "lspec/program_monitors.hpp"
#include "lspec/snapshot.hpp"
#include "lspec/tme_monitors.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::lspec {
namespace {

using me::TmeState;

GlobalSnapshot make_snapshot(std::size_t n,
                             std::initializer_list<TmeState> states) {
  GlobalSnapshot s;
  s.resize(n);  // zeroes the knows_earlier and vector-clock matrices
  std::size_t j = 0;
  for (const auto st : states) {
    s.procs[j].state = st;
    s.procs[j].req = clk::Timestamp{j + 1, static_cast<ProcessId>(j)};
    ++j;
  }
  return s;
}

// --- snapshot helpers -------------------------------------------------------

TEST(GlobalSnapshot, CountsStates) {
  const auto s = make_snapshot(
      3, {TmeState::kEating, TmeState::kHungry, TmeState::kEating});
  EXPECT_EQ(s.eating_count(), 2u);
  EXPECT_EQ(s.hungry_count(), 1u);
}

// --- ME1 -----------------------------------------------------------------------

TEST(Me1Monitor, CleanWithSingleEater) {
  TmeMonitorSet set;
  auto& me1 = set.add<Me1Monitor>();
  set.observe(0, make_snapshot(3, {TmeState::kEating, TmeState::kThinking,
                                   TmeState::kHungry}));
  set.observe(1, make_snapshot(3, {TmeState::kThinking, TmeState::kEating,
                                   TmeState::kHungry}));
  EXPECT_TRUE(me1.clean());
}

TEST(Me1Monitor, FlagsOverlap) {
  TmeMonitorSet set;
  auto& me1 = set.add<Me1Monitor>();
  set.observe(5, make_snapshot(2, {TmeState::kEating, TmeState::kEating}));
  EXPECT_EQ(me1.total_violations(), 1u);
  EXPECT_EQ(me1.last_violation(), 5u);
  EXPECT_EQ(me1.episodes(), 1u);
}

TEST(Me1Monitor, EpisodeCountsDistinctOverlaps) {
  TmeMonitorSet set;
  auto& me1 = set.add<Me1Monitor>();
  set.observe(0, make_snapshot(2, {TmeState::kEating, TmeState::kEating}));
  set.observe(1, make_snapshot(2, {TmeState::kEating, TmeState::kEating}));
  set.observe(2, make_snapshot(2, {TmeState::kEating, TmeState::kThinking}));
  set.observe(3, make_snapshot(2, {TmeState::kEating, TmeState::kEating}));
  EXPECT_EQ(me1.episodes(), 2u);
  EXPECT_EQ(me1.total_violations(), 3u);
  EXPECT_EQ(me1.last_violation(), 3u);
}

// --- ME2 -----------------------------------------------------------------------

TEST(Me2Monitor, ServedRequestIsClean) {
  TmeMonitorSet set;
  auto& me2 = set.add<Me2Monitor>(2);
  set.observe(0, make_snapshot(2, {TmeState::kThinking, TmeState::kThinking}));
  set.observe(1, make_snapshot(2, {TmeState::kHungry, TmeState::kThinking}));
  set.observe(4, make_snapshot(2, {TmeState::kEating, TmeState::kThinking}));
  set.finish(5);
  EXPECT_TRUE(me2.clean());
  EXPECT_EQ(me2.served(), 1u);
  EXPECT_EQ(me2.max_wait(), 3u);
  EXPECT_FALSE(me2.starvation_at_end());
}

TEST(Me2Monitor, HungryAtEndIsStarvation) {
  TmeMonitorSet set;
  auto& me2 = set.add<Me2Monitor>(2);
  set.observe(0, make_snapshot(2, {TmeState::kThinking, TmeState::kThinking}));
  set.observe(3, make_snapshot(2, {TmeState::kHungry, TmeState::kThinking}));
  set.observe(9, make_snapshot(2, {TmeState::kHungry, TmeState::kThinking}));
  set.finish(10);
  EXPECT_TRUE(me2.starvation_at_end());
  EXPECT_EQ(me2.total_violations(), 1u);
  EXPECT_EQ(me2.last_violation(), 3u);  // reported at hungry-since
}

TEST(Me2Monitor, FaultJumpCancelsEpisodeWithoutService) {
  TmeMonitorSet set;
  auto& me2 = set.add<Me2Monitor>(1);
  set.observe(0, make_snapshot(1, {TmeState::kHungry}));
  set.observe(1, make_snapshot(1, {TmeState::kThinking}));  // corruption jump
  set.finish(2);
  EXPECT_TRUE(me2.clean());
  EXPECT_EQ(me2.served(), 0u);
}

TEST(Me2Monitor, TracksMaxAcrossMultipleWaits) {
  TmeMonitorSet set;
  auto& me2 = set.add<Me2Monitor>(1);
  set.observe(0, make_snapshot(1, {TmeState::kHungry}));
  set.observe(2, make_snapshot(1, {TmeState::kEating}));
  set.observe(3, make_snapshot(1, {TmeState::kThinking}));
  set.observe(4, make_snapshot(1, {TmeState::kHungry}));
  set.observe(14, make_snapshot(1, {TmeState::kEating}));
  set.finish(15);
  EXPECT_EQ(me2.served(), 2u);
  EXPECT_EQ(me2.max_wait(), 10u);
}

// --- ME3 -----------------------------------------------------------------------

class Me3Test : public ::testing::Test {
 protected:
  // Build snapshots with controllable vector clocks so happened-before can
  // be forced. Two processes.
  GlobalSnapshot snap(TmeState s0, TmeState s1, const clk::VectorClock& vc0,
                      const clk::VectorClock& vc1) {
    auto s = make_snapshot(2, {s0, s1});
    s.set_vc(0, vc0);
    s.set_vc(1, vc1);
    return s;
  }
};

TEST_F(Me3Test, CausallyOrderedEntriesInOrderAreClean) {
  TmeMonitorSet set;
  auto& me3 = set.add<Me3Monitor>(2);
  clk::VectorClock v0(0, 2);
  v0.tick();  // request event of 0
  clk::VectorClock v1(1, 2);
  v1.witness(v0);  // 1 requests after hearing from 0: hb holds
  set.observe(0, snap(TmeState::kThinking, TmeState::kThinking,
                      clk::VectorClock(0, 2), clk::VectorClock(1, 2)));
  set.observe(1, snap(TmeState::kHungry, TmeState::kThinking, v0,
                      clk::VectorClock(1, 2)));
  set.observe(2, snap(TmeState::kHungry, TmeState::kHungry, v0, v1));
  // 0 (earlier) enters first: clean.
  set.observe(3, snap(TmeState::kEating, TmeState::kHungry, v0, v1));
  set.observe(4, snap(TmeState::kThinking, TmeState::kHungry, v0, v1));
  set.observe(5, snap(TmeState::kThinking, TmeState::kEating, v0, v1));
  EXPECT_TRUE(me3.clean());
  EXPECT_EQ(me3.entries_checked(), 2u);
}

TEST_F(Me3Test, OvertakingCausalRequestIsViolation) {
  TmeMonitorSet set;
  auto& me3 = set.add<Me3Monitor>(2);
  clk::VectorClock v0(0, 2);
  v0.tick();
  clk::VectorClock v1(1, 2);
  v1.witness(v0);  // 0's request hb 1's request
  set.observe(0, snap(TmeState::kThinking, TmeState::kThinking,
                      clk::VectorClock(0, 2), clk::VectorClock(1, 2)));
  set.observe(1, snap(TmeState::kHungry, TmeState::kThinking, v0,
                      clk::VectorClock(1, 2)));
  set.observe(2, snap(TmeState::kHungry, TmeState::kHungry, v0, v1));
  // 1 enters while 0 (whose request happened-before) still waits: FCFS
  // violation.
  set.observe(3, snap(TmeState::kHungry, TmeState::kEating, v0, v1));
  EXPECT_EQ(me3.total_violations(), 1u);
  EXPECT_EQ(me3.last_violation(), 3u);
}

TEST_F(Me3Test, ConcurrentRequestsMayEnterInAnyOrder) {
  TmeMonitorSet set;
  auto& me3 = set.add<Me3Monitor>(2);
  clk::VectorClock v0(0, 2), v1(1, 2);
  v0.tick();
  v1.tick();  // concurrent requests
  set.observe(0, snap(TmeState::kThinking, TmeState::kThinking,
                      clk::VectorClock(0, 2), clk::VectorClock(1, 2)));
  set.observe(1, snap(TmeState::kHungry, TmeState::kHungry, v0, v1));
  set.observe(2, snap(TmeState::kHungry, TmeState::kEating, v0, v1));
  EXPECT_TRUE(me3.clean());
}

TEST_F(Me3Test, EntryWithoutRequestWhilePeersWaitIsViolation) {
  TmeMonitorSet set;
  auto& me3 = set.add<Me3Monitor>(2);
  clk::VectorClock v0(0, 2), v1(1, 2);
  v0.tick();
  set.observe(0, snap(TmeState::kThinking, TmeState::kThinking,
                      clk::VectorClock(0, 2), v1));
  set.observe(1, snap(TmeState::kHungry, TmeState::kThinking, v0, v1));
  // Corruption jumps 1 straight into the CS while 0 waits.
  set.observe(2, snap(TmeState::kHungry, TmeState::kEating, v0, v1));
  EXPECT_EQ(me3.total_violations(), 1u);
}

// --- Invariant I -------------------------------------------------------------------

TEST(InvariantIMonitor, CleanWhenBeliefsMatchReality) {
  TmeMonitorSet set;
  auto& inv = set.add<InvariantIMonitor>();
  auto s = make_snapshot(2, {TmeState::kHungry, TmeState::kThinking});
  s.procs[0].req = clk::Timestamp{1, 0};
  s.procs[1].req = clk::Timestamp{5, 1};
  s.set_knows_earlier(0, 1, true);  // true: {1,0} lt {5,1}
  set.observe(0, s);
  EXPECT_TRUE(inv.clean());
}

TEST(InvariantIMonitor, FlagsFalseBelief) {
  TmeMonitorSet set;
  auto& inv = set.add<InvariantIMonitor>();
  auto s = make_snapshot(2, {TmeState::kHungry, TmeState::kThinking});
  s.procs[0].req = clk::Timestamp{9, 0};
  s.procs[1].req = clk::Timestamp{5, 1};
  s.set_knows_earlier(0, 1, true);  // false belief: {9,0} not lt {5,1}
  set.observe(7, s);
  EXPECT_EQ(inv.total_violations(), 1u);
  EXPECT_EQ(inv.last_violation(), 7u);
}

TEST(InvariantIMonitor, BeliefOnlyJudgedWhileHungry) {
  TmeMonitorSet set;
  auto& inv = set.add<InvariantIMonitor>();
  auto s = make_snapshot(2, {TmeState::kThinking, TmeState::kThinking});
  s.procs[0].req = clk::Timestamp{9, 0};
  s.procs[1].req = clk::Timestamp{5, 1};
  s.set_knows_earlier(0, 1, true);
  set.observe(0, s);
  EXPECT_TRUE(inv.clean());
}

// --- Mutual Belief ---------------------------------------------------------------

TEST(MutualBeliefMonitor, PairCountReportsWhatTheFullCheckReports) {
  // Two overlapping mutually-believing pairs, {0, 1} and {1, 2}, built and
  // dissolved one row at a time at n=6. One monitor steps on the row hints
  // (its pair count); the other steps every state with kDirtyAll (the full
  // O(N²) check). Both must report at the same times with the same kept
  // details.
  std::deque<GlobalSnapshot> states;  // stable addresses for observe_ref
  std::vector<std::size_t> hints;
  states.push_back(make_snapshot(6, {TmeState::kThinking, TmeState::kThinking,
                                     TmeState::kThinking, TmeState::kThinking,
                                     TmeState::kThinking,
                                     TmeState::kThinking}));
  const auto next = [&](std::size_t dirty, auto edit) {
    states.push_back(states.back());
    edit(states.back());
    hints.push_back(dirty);
  };
  const auto hungry_believing = [](std::size_t j,
                                   std::vector<std::size_t> ks) {
    return [j, ks = std::move(ks)](GlobalSnapshot& s) {
      s.procs[j].state = TmeState::kHungry;
      for (const std::size_t k : ks) s.set_knows_earlier(j, k, true);
    };
  };
  const auto no_change = [](GlobalSnapshot&) {};
  // t=1..3 build {0, 1}, then {1, 2}; t=4 changes two rows at once; t=5 an
  // unrelated row; t=7 dissolves {0, 1} and t=9 {1, 2}; t=11 adds a hungry
  // believer whose peers do not believe back.
  next(0, hungry_believing(0, {1}));
  next(1, hungry_believing(1, {0, 2}));
  next(2, hungry_believing(2, {1}));
  next(spec::kDirtyAll, [](GlobalSnapshot& s) {
    s.procs[3].req.counter = 30;
    s.procs[5].state = TmeState::kHungry;
  });
  next(4, [](GlobalSnapshot& s) { s.procs[4].req.counter = 40; });
  next(spec::kDirtyNone, no_change);
  next(0, [](GlobalSnapshot& s) { s.set_knows_earlier(0, 1, false); });
  next(spec::kDirtyNone, no_change);
  next(2, [](GlobalSnapshot& s) { s.procs[2].state = TmeState::kEating; });
  next(spec::kDirtyNone, no_change);
  next(5, hungry_believing(5, {0, 1}));

  TmeMonitorSet hinted_set;
  TmeMonitorSet full_set;
  auto& hinted = hinted_set.add<MutualBeliefMonitor>();
  auto& full = full_set.add<MutualBeliefMonitor>();
  for (std::size_t t = 0; t < states.size(); ++t) {
    const GlobalSnapshot& prev = states[t == 0 ? 0 : t - 1];
    const std::size_t hint = t == 0 ? spec::kDirtyAll : hints[t - 1];
    hinted_set.observe_ref(t, prev, states[t], hint);
    full_set.observe_ref(t, prev, states[t], spec::kDirtyAll);
  }

  std::vector<SimTime> times;
  for (const spec::Violation& v : hinted.violations()) times.push_back(v.time);
  EXPECT_EQ(times, (std::vector<SimTime>{2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(hinted.violations().front().detail,
            "processes 0 and 1 each believe their request precedes the "
            "other's");
  EXPECT_EQ(hinted.violations().back().detail,
            "processes 1 and 2 each believe their request precedes the "
            "other's");
  EXPECT_EQ(hinted.episodes(), 1u);

  ASSERT_EQ(hinted.violations().size(), full.violations().size());
  for (std::size_t i = 0; i < full.violations().size(); ++i) {
    EXPECT_EQ(hinted.violations()[i].time, full.violations()[i].time);
    EXPECT_EQ(hinted.violations()[i].detail, full.violations()[i].detail);
  }
  EXPECT_EQ(hinted.total_violations(), full.total_violations());
  EXPECT_EQ(hinted.last_violation(), full.last_violation());
  EXPECT_EQ(hinted.episodes(), full.episodes());
}

// --- install helper ------------------------------------------------------------------

TEST(InstallTmeMonitors, WiresAllFour) {
  TmeMonitorSet set;
  const TmeMonitors handles = install_tme_monitors(set, 3);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_NE(handles.me1, nullptr);
  EXPECT_NE(handles.me2, nullptr);
  EXPECT_NE(handles.me3, nullptr);
  EXPECT_NE(handles.invariant_i, nullptr);
}

// --- program monitors on live processes ------------------------------------------------

class ProgramMonitorTest : public ::testing::Test {
 protected:
  ProgramMonitorTest() : net(sched, 2, net::DelayModel::fixed(1), Rng(5)) {
    for (ProcessId pid = 0; pid < 2; ++pid) {
      procs.push_back(std::make_unique<me::RicartAgrawala>(pid, net));
      auto* p = procs.back().get();
      net.set_handler(pid,
                      [p](const net::Message& m) { p->on_message(m); });
      raw.push_back(p);
    }
  }
  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<me::RicartAgrawala>> procs;
  std::vector<me::TmeProcess*> raw;
};

TEST_F(ProgramMonitorTest, StructuralSpecCleanOnProtocolRun) {
  StructuralSpecMonitor mon(raw, sched);
  procs[0]->request_cs();
  sched.run_all();
  procs[0]->release_cs();
  sched.run_all();
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.transitions_checked(), 3u);
}

TEST_F(ProgramMonitorTest, StructuralSpecIgnoresFaultJumps) {
  StructuralSpecMonitor mon(raw, sched);
  procs[0]->fault_set_state(me::TmeState::kEating);  // not a program step
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.transitions_checked(), 0u);
}

TEST_F(ProgramMonitorTest, FifoCleanOnFaultFreeTraffic) {
  FifoMonitor mon(net, sched);
  procs[0]->request_cs();
  sched.run_all();
  procs[0]->release_cs();
  sched.run_all();
  EXPECT_TRUE(mon.clean());
  EXPECT_GT(mon.deliveries_checked(), 0u);
}

TEST_F(ProgramMonitorTest, FifoFlagsReorderFault) {
  FifoMonitor mon(net, sched);
  net.send(0, 1, net::MsgType::kRequest, clk::Timestamp{1, 0});
  net.send(0, 1, net::MsgType::kRequest, clk::Timestamp{2, 0});
  net.channel(0, 1).fault_swap(0, 1);
  sched.run_all();
  EXPECT_FALSE(mon.clean());
}

TEST_F(ProgramMonitorTest, FifoSkipsFabricatedMessages) {
  FifoMonitor mon(net, sched);
  net::Message fake;
  fake.type = net::MsgType::kRelease;  // ignored by RA: no response traffic
  fake.from = 0;
  fake.to = 1;
  fake.ts = clk::Timestamp{1, 0};
  net.channel(0, 1).fault_inject(fake);  // uid 0
  sched.run_all();
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.deliveries_checked(), 0u);
}

TEST_F(ProgramMonitorTest, SendMonotonicityCleanFaultFree) {
  SendMonotonicityMonitor mon(net, sched);
  procs[0]->request_cs();
  sched.run_all();
  procs[0]->release_cs();
  procs[1]->request_cs();
  sched.run_all();
  EXPECT_TRUE(mon.clean());
  EXPECT_GT(mon.sends_checked(), 0u);
}

TEST_F(ProgramMonitorTest, SendMonotonicityFlagsClockRollback) {
  SendMonotonicityMonitor mon(net, sched);
  procs[0]->request_cs();
  sched.run_all();
  procs[0]->release_cs();
  // A peer request pushes 0's clock (and hence its reply timestamp) up.
  procs[1]->request_cs();
  sched.run_all();
  EXPECT_TRUE(mon.clean());
  // Corrupt the clock backwards; the next request sends a smaller ts.
  procs[0]->fault_set_clock(0);
  procs[0]->request_cs();
  EXPECT_FALSE(mon.clean());
}

}  // namespace
}  // namespace graybox::lspec
