// Scripted scenario tests reproducing, step by step, the concrete fault
// situations the paper discusses in prose: the Section 4 deadlock, the
// corrupted-view inconsistencies, and the clock-corruption behaviours. Each
// scenario is built surgically (fault_set_*) so the mechanism — not just
// the end-to-end statistics — is pinned down.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "me/client.hpp"
#include "me/lamport.hpp"
#include "me/ricart_agrawala.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "wrapper/graybox_wrapper.hpp"

namespace graybox {
namespace {

using me::TmeState;

// A two-process rig with optional wrappers, generic over implementation.
template <typename Impl>
class Rig {
 public:
  explicit Rig(bool wrapped, SimTime period = 10)
      : net(sched, 2, net::DelayModel::fixed(1), Rng(5)) {
    for (ProcessId pid = 0; pid < 2; ++pid) {
      procs.push_back(std::make_unique<Impl>(pid, net));
      auto* p = procs.back().get();
      net.set_handler(pid,
                      [p](const net::Message& m) { p->on_message(m); });
    }
    if (wrapped) {
      for (ProcessId pid = 0; pid < 2; ++pid) {
        wrappers.push_back(std::make_unique<wrapper::GrayboxWrapper>(
            sched, net, *procs[pid],
            wrapper::WrapperConfig{.resend_period = period}));
        wrappers.back()->start();
      }
    }
  }

  Impl& p(ProcessId pid) { return *procs[pid]; }

  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<Impl>> procs;
  std::vector<std::unique_ptr<wrapper::GrayboxWrapper>> wrappers;
};

// --- Section 4: "due to transient faults there might be more than one
// process accessing CS at the same time" ------------------------------------

TEST(Section4, DoubleEntryIsTransient) {
  Rig<me::RicartAgrawala> rig(/*wrapped=*/true);
  rig.p(0).request_cs();
  rig.sched.run_until(50);
  ASSERT_TRUE(rig.p(0).eating());
  // Corruption fakes a second eater.
  rig.p(1).fault_set_state(TmeState::kEating);
  EXPECT_EQ(rig.p(0).state(), TmeState::kEating);
  EXPECT_EQ(rig.p(1).state(), TmeState::kEating);
  // CS Spec (client side) releases both; afterwards ME behaves normally.
  rig.p(0).release_cs();
  rig.p(1).release_cs();
  rig.sched.run_until(rig.sched.now() + 100);
  rig.p(1).request_cs();
  rig.sched.run_until(rig.sched.now() + 100);
  EXPECT_TRUE(rig.p(1).eating());
  EXPECT_TRUE(rig.p(0).thinking());
}

// --- Section 4: the deadlock scenario, verbatim ------------------------------
//
// "Suppose processes j and k have both requested CS. Due to transient
//  faults (e.g., REQj and REQk are both dropped from the channels) j and k
//  may have mutually inconsistent information: j.REQk lt REQj and
//  k.REQj lt REQk. Process j cannot enter CS because j.REQk lt REQj.
//  Likewise, k cannot enter. ... Therefore, the state of M has a deadlock."

template <typename Impl>
void build_section4_deadlock(Rig<Impl>& rig) {
  rig.p(0).request_cs();
  rig.p(1).request_cs();
  // Both request messages dropped from the channels.
  rig.net.channel(0, 1).fault_clear();
  rig.net.channel(1, 0).fault_clear();
}

TEST(Section4, BareRicartAgrawalaDeadlocks) {
  Rig<me::RicartAgrawala> rig(/*wrapped=*/false);
  build_section4_deadlock(rig);
  rig.sched.run_until(100000);
  EXPECT_TRUE(rig.p(0).hungry());
  EXPECT_TRUE(rig.p(1).hungry());
  EXPECT_EQ(rig.net.in_flight(), 0u);  // nothing will ever move again
}

TEST(Section4, BareLamportDeadlocks) {
  Rig<me::LamportMe> rig(/*wrapped=*/false);
  build_section4_deadlock(rig);
  rig.sched.run_until(100000);
  EXPECT_TRUE(rig.p(0).hungry());
  EXPECT_TRUE(rig.p(1).hungry());
}

TEST(Section4, WrapperBreaksRicartAgrawalaDeadlock) {
  Rig<me::RicartAgrawala> rig(/*wrapped=*/true);
  build_section4_deadlock(rig);
  rig.sched.run_until(200);
  // The earlier request (process 0, pid tiebreak) won.
  EXPECT_TRUE(rig.p(0).eating());
  EXPECT_TRUE(rig.p(1).hungry());
  rig.p(0).release_cs();
  rig.sched.run_until(400);
  EXPECT_TRUE(rig.p(1).eating());
}

TEST(Section4, WrapperBreaksLamportDeadlock) {
  Rig<me::LamportMe> rig(/*wrapped=*/true);
  build_section4_deadlock(rig);
  rig.sched.run_until(200);
  EXPECT_TRUE(rig.p(0).eating());
  rig.p(0).release_cs();
  rig.sched.run_until(400);
  EXPECT_TRUE(rig.p(1).eating());
}

TEST(Section4, RecoveryTimeScalesWithTimeoutPeriod) {
  // W' with larger delta recovers later: measure time-to-first-entry.
  auto recovery_time = [](SimTime period) {
    Rig<me::RicartAgrawala> rig(/*wrapped=*/true, period);
    build_section4_deadlock(rig);
    SimTime entered = 0;
    while (rig.sched.step()) {
      if (rig.p(0).eating() || rig.p(1).eating()) {
        entered = rig.sched.now();
        break;
      }
    }
    return entered;
  };
  const SimTime fast = recovery_time(5);
  const SimTime slow = recovery_time(200);
  EXPECT_GT(fast, 0u);
  EXPECT_GT(slow, fast);
}

// --- Mutually inconsistent views without message loss -------------------------

TEST(MutualInconsistency, CorruptedLowViewsDeadlockBare) {
  Rig<me::RicartAgrawala> rig(/*wrapped=*/false);
  rig.p(0).request_cs();
  rig.p(1).request_cs();
  rig.sched.run_all();
  // One of them ate; force both back to a hungry, mutually-stale state.
  rig.p(0).fault_set_state(TmeState::kHungry);
  rig.p(1).fault_set_state(TmeState::kHungry);
  rig.p(0).fault_set_req(clk::Timestamp{100, 0});
  rig.p(1).fault_set_req(clk::Timestamp{100, 1});
  rig.p(0).fault_set_view(1, clk::Timestamp{1, 1});   // j.REQk lt REQj
  rig.p(1).fault_set_view(0, clk::Timestamp{1, 0});   // k.REQj lt REQk
  rig.sched.run_until(rig.sched.now() + 50000);
  rig.p(0).poll();
  rig.p(1).poll();
  EXPECT_TRUE(rig.p(0).hungry());
  EXPECT_TRUE(rig.p(1).hungry());
}

TEST(MutualInconsistency, WrapperRepairsCorruptedLowViews) {
  Rig<me::RicartAgrawala> rig(/*wrapped=*/true);
  rig.p(0).fault_set_state(TmeState::kHungry);
  rig.p(1).fault_set_state(TmeState::kHungry);
  rig.p(0).fault_set_req(clk::Timestamp{100, 0});
  rig.p(1).fault_set_req(clk::Timestamp{100, 1});
  rig.p(0).fault_set_view(1, clk::Timestamp{1, 1});
  rig.p(1).fault_set_view(0, clk::Timestamp{1, 0});
  rig.sched.run_until(300);
  EXPECT_TRUE(rig.p(0).eating());  // {100,0} lt {100,1}: 0 wins
  rig.p(0).release_cs();
  rig.sched.run_until(600);
  EXPECT_TRUE(rig.p(1).eating());
}

TEST(MutualInconsistency, WrapperSendsNothingWhenViewsConsistent) {
  // Refinement check at system level: consistent hungry states produce no
  // wrapper traffic even with the timer running.
  Rig<me::RicartAgrawala> rig(/*wrapped=*/true);
  rig.p(0).request_cs();
  rig.sched.run_until(50);
  ASSERT_TRUE(rig.p(0).eating());  // hungry phase passed, views consistent
  const auto wrapper_msgs = rig.net.sent_by_wrapper();
  rig.sched.run_until(rig.sched.now() + 1000);
  EXPECT_EQ(rig.net.sent_by_wrapper(), wrapper_msgs);
}

// --- Clock corruption ---------------------------------------------------------

TEST(ClockCorruption, HugeClockPropagatesWithoutStall) {
  Rig<me::RicartAgrawala> rig(/*wrapped=*/true);
  rig.p(0).fault_set_clock(1'000'000'000);
  rig.p(0).request_cs();
  rig.sched.run_until(100);
  EXPECT_TRUE(rig.p(0).eating());
  rig.p(0).release_cs();
  rig.p(1).request_cs();
  rig.sched.run_until(200);
  EXPECT_TRUE(rig.p(1).eating());
  EXPECT_GT(rig.p(1).req().counter, 1'000'000'000u);
}

TEST(ClockCorruption, HungryWithHugeReqIsEventuallyServed) {
  Rig<me::LamportMe> rig(/*wrapped=*/true);
  rig.p(0).fault_set_state(TmeState::kHungry);
  rig.p(0).fault_set_req(clk::Timestamp{1'000'000'000, 0});
  rig.sched.run_until(500);
  rig.p(0).poll();
  EXPECT_TRUE(rig.p(0).eating());
}

// --- Corrupted-high views: the one-extra-violation heal --------------------------

TEST(CorruptedHighView, TransientDoubleEntryThenHeals) {
  // j's view of k corrupted high: j enters without k's reply. If k is
  // eating, ME1 is briefly violated; the violation cannot recur after the
  // heal (j sees k's genuine request).
  Rig<me::RicartAgrawala> rig(/*wrapped=*/true);
  rig.p(1).request_cs();
  rig.sched.run_until(50);
  ASSERT_TRUE(rig.p(1).eating());
  rig.p(0).fault_set_view(1, clk::Timestamp{1'000'000, 1});
  rig.p(0).request_cs();  // enters immediately on the corrupt belief
  EXPECT_TRUE(rig.p(0).eating());
  EXPECT_TRUE(rig.p(1).eating());  // ME1 violated...
  rig.p(0).release_cs();
  rig.p(1).release_cs();
  rig.sched.run_until(200);
  // ...but the views have healed: a new contention round is exclusive.
  rig.p(0).request_cs();
  rig.p(1).request_cs();
  rig.sched.run_until(400);
  EXPECT_EQ((rig.p(0).eating() ? 1 : 0) + (rig.p(1).eating() ? 1 : 0), 1);
}

// --- The same Section 4 script, driven through the engine ---------------------

TEST(Section4, EngineGridReproducesTheDeadlockVerdicts) {
  // The scripted deadlock as a four-cell engine grid (algorithm x wrapped),
  // run with two workers: the scripted_fault callable is shared by
  // concurrent trials, capturing nothing and touching only the harness it
  // is handed — the thread-safety contract RunSpec documents.
  core::FaultScenario scenario;
  scenario.warmup = 100;
  scenario.observation = 8000;
  scenario.drain = 6000;
  scenario.scripted_fault = [](core::SystemHarness& h) {
    h.process(0).request_cs();
    h.process(1).request_cs();
    for (ProcessId to = 0; to < h.network().size(); ++to) {
      if (to != 0) h.network().channel(0, to).fault_clear();
      if (to != 1) h.network().channel(1, to).fault_clear();
    }
  };

  core::SpecGrid grid;
  for (const char* algo : {"ricart-agrawala", "lamport"}) {
    for (const bool wrapped : {false, true}) {
      core::HarnessConfig config;
      config.n = 3;
      config.algorithm = algo;
      config.wrapped = wrapped;
      config.wrapper.resend_period = 20;
      config.client.wants_cs = false;  // scripted requests only
      config.seed = 7;
      grid.add(std::string(algo) + (wrapped ? "/wrapped" : "/bare"), config,
               scenario, 1);
    }
  }
  const core::GridResult result =
      core::ExperimentEngine(core::EngineOptions{.jobs = 2}).run(grid);

  for (const char* algo : {"ricart-agrawala", "lamport"}) {
    const core::RepeatedResult& bare =
        result.cell(std::string(algo) + "/bare").result;
    const core::RepeatedResult& wrapped =
        result.cell(std::string(algo) + "/wrapped").result;
    EXPECT_EQ(bare.stabilized, 0u) << algo;    // deadlocked forever
    EXPECT_EQ(bare.starved, 1u) << algo;
    EXPECT_TRUE(wrapped.all_stabilized()) << algo;
    EXPECT_GE(wrapped.cs_entries.sum(), 2.0) << algo;
  }
}

}  // namespace
}  // namespace graybox
