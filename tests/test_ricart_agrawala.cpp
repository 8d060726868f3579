// Unit tests for the Ricart-Agrawala program: fault-free protocol behaviour
// (requests, deferral, replies, entry, release) and everywhere-implementation
// behaviour from corrupted states.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "me/ricart_agrawala.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace graybox::me {
namespace {

class RaTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;

  RaTest() : net(sched, kN, net::DelayModel::fixed(1), Rng(5)) {
    for (ProcessId pid = 0; pid < kN; ++pid) {
      procs.push_back(std::make_unique<RicartAgrawala>(pid, net));
      auto* p = procs.back().get();
      net.set_handler(pid,
                      [p](const net::Message& m) { p->on_message(m); });
    }
  }

  RicartAgrawala& p(ProcessId pid) { return *procs[pid]; }
  void settle() { sched.run_all(); }

  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<RicartAgrawala>> procs;
};

TEST_F(RaTest, InitialStateIsThinkingWithZeroReq) {
  for (ProcessId pid = 0; pid < kN; ++pid) {
    EXPECT_TRUE(p(pid).thinking());
    EXPECT_EQ(p(pid).req(), (clk::Timestamp{0, pid}));
    EXPECT_EQ(p(pid).cs_entries(), 0u);
  }
}

TEST_F(RaTest, SoloRequestEntersAfterAllReplies) {
  p(0).request_cs();
  EXPECT_TRUE(p(0).hungry());
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), kN - 1);
  settle();
  EXPECT_TRUE(p(0).eating());
  EXPECT_EQ(p(0).cs_entries(), 1u);
}

TEST_F(RaTest, ReleaseReturnsToThinking) {
  p(0).request_cs();
  settle();
  p(0).release_cs();
  EXPECT_TRUE(p(0).thinking());
  settle();
  EXPECT_EQ(p(0).cs_entries(), 1u);
}

TEST_F(RaTest, RequestWhileNotThinkingIgnored) {
  p(0).request_cs();
  const auto req = p(0).req();
  p(0).request_cs();  // hungry: no-op, REQ unchanged (Request Spec)
  EXPECT_EQ(p(0).req(), req);
  settle();
  p(0).request_cs();  // eating: no-op
  EXPECT_TRUE(p(0).eating());
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), kN - 1);
}

TEST_F(RaTest, ReleaseWhileNotEatingIgnored) {
  p(0).release_cs();
  EXPECT_TRUE(p(0).thinking());
  p(0).request_cs();
  p(0).release_cs();  // hungry: no-op
  EXPECT_TRUE(p(0).hungry());
}

TEST_F(RaTest, MutualExclusionUnderContention) {
  p(0).request_cs();
  p(1).request_cs();
  p(2).request_cs();
  std::size_t max_eating = 0;
  std::uint64_t total_entries = 0;
  for (int round = 0; round < 200; ++round) {
    if (!sched.step()) break;
    std::size_t eating = 0;
    for (ProcessId pid = 0; pid < kN; ++pid)
      if (p(pid).eating()) ++eating;
    max_eating = std::max(max_eating, eating);
    for (ProcessId pid = 0; pid < kN; ++pid) {
      if (p(pid).eating()) {
        p(pid).release_cs();
        ++total_entries;
      }
    }
  }
  EXPECT_LE(max_eating, 1u);
  EXPECT_EQ(total_entries, 3u);
}

TEST_F(RaTest, EarlierTimestampWinsContention) {
  p(0).request_cs();  // gets the earlier timestamp
  sched.run_for(0);   // no time passes; both requests concurrent
  p(1).request_cs();
  // 1's request is later (its clock ticked past nothing yet — both have
  // counter 1, pid breaks the tie in 0's favor).
  settle();
  // Only one eats; it must be 0.
  EXPECT_TRUE(p(0).eating());
  EXPECT_TRUE(p(1).hungry());
  p(0).release_cs();
  settle();
  EXPECT_TRUE(p(1).eating());
}

TEST_F(RaTest, DeferredRequestAnsweredOnRelease) {
  p(0).request_cs();
  settle();
  EXPECT_TRUE(p(0).eating());
  p(1).request_cs();
  settle();
  // 0 defers 1 (it is eating with an earlier request).
  EXPECT_TRUE(p(0).deferred(1));
  EXPECT_TRUE(p(1).hungry());
  const auto replies_before = net.sent_of_type(net::MsgType::kReply);
  p(0).release_cs();
  settle();
  EXPECT_GT(net.sent_of_type(net::MsgType::kReply), replies_before);
  EXPECT_TRUE(p(1).eating());
}

TEST_F(RaTest, ThinkingProcessRepliesImmediately) {
  p(0).request_cs();
  settle();
  // 1 and 2 are thinking: they must have replied, not deferred.
  EXPECT_FALSE(p(1).deferred(0));
  EXPECT_FALSE(p(2).deferred(0));
  EXPECT_TRUE(p(0).eating());
}

TEST_F(RaTest, ViewsTrackPeerRequests) {
  p(1).request_cs();
  const auto req1 = p(1).req();
  settle();
  EXPECT_EQ(p(0).view_of(1), req1);
}

TEST_F(RaTest, InvariantIViewsNeverOvershoot) {
  // Run a busy fault-free interleaving; at every quiescent point views
  // must satisfy j.REQk = REQk or j.REQk lt REQk (Theorem A.1).
  Rng rng(9);
  for (int round = 0; round < 60; ++round) {
    const ProcessId pid = static_cast<ProcessId>(rng.index(kN));
    if (p(pid).thinking()) p(pid).request_cs();
    if (p(pid).eating()) p(pid).release_cs();
    for (int s = 0; s < 3; ++s) sched.step();
  }
  settle();
  for (ProcessId pid = 0; pid < kN; ++pid)
    if (p(pid).eating()) p(pid).release_cs();
  settle();
  for (ProcessId j = 0; j < kN; ++j) {
    for (ProcessId k = 0; k < kN; ++k) {
      if (j == k) continue;
      const auto view = p(j).view_of(k);
      const auto actual = p(k).req();
      EXPECT_TRUE(view == actual || clk::lt(view, actual))
          << "view " << view.to_string() << " overshoots REQ "
          << actual.to_string();
    }
  }
}

TEST_F(RaTest, ReqTracksClockWhileThinking) {
  // Release Spec: t.j => REQj = ts.j at every event.
  p(1).request_cs();
  settle();
  // 0 received a request (an event): its REQ must equal its clock now.
  EXPECT_EQ(p(0).req(), p(0).clock().now());
}

TEST_F(RaTest, TotalHandlerToleratesCorruptMessages) {
  net::Message junk;
  junk.type = net::MsgType::kRelease;  // RA never sends these
  junk.from = 1;
  junk.to = 0;
  junk.ts = clk::Timestamp{999999, 1};
  p(0).on_message(junk);
  junk.from = 99;  // out-of-range sender
  p(0).on_message(junk);
  junk.from = 0;  // self-loop sender
  p(0).on_message(junk);
  EXPECT_TRUE(p(0).thinking());
}

TEST_F(RaTest, CorruptedHighClockPropagatesAndSystemProceeds) {
  p(0).fault_set_clock(1'000'000);
  p(0).request_cs();
  settle();
  EXPECT_TRUE(p(0).eating());
  p(0).release_cs();
  // Peers witnessed the huge timestamp; later requests still work.
  p(1).request_cs();
  settle();
  EXPECT_TRUE(p(1).eating());
  EXPECT_GT(p(1).req().counter, 1'000'000u);
}

TEST_F(RaTest, CorruptedLowViewHealsOnReply) {
  p(0).request_cs();
  settle();
  EXPECT_TRUE(p(0).eating());
  p(0).release_cs();
  settle();
  // Corrupt 0's view of 1 downward; 1's next request heals it directly.
  p(0).fault_set_view(1, clk::Timestamp{0, 1});
  p(1).request_cs();
  const auto req1 = p(1).req();
  settle();
  EXPECT_EQ(p(0).view_of(1), req1);
}

TEST_F(RaTest, CorruptedStateIsTypeValid) {
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    p(0).corrupt_state(rng);
    const auto s = p(0).state();
    EXPECT_TRUE(s == TmeState::kThinking || s == TmeState::kHungry ||
                s == TmeState::kEating);
    for (ProcessId k = 0; k < kN; ++k) {
      // Views and flags must remain readable without contract failures.
      (void)p(0).view_of(k);
      if (k != 0) (void)p(0).knows_earlier(k);
      (void)p(0).received_pending(k);
    }
  }
}

TEST_F(RaTest, PollReevaluatesEntryAfterCorruption) {
  // Plant a state where entry is enabled but no message will arrive: the
  // client's poll must let the process enter.
  p(0).fault_set_state(TmeState::kHungry);
  p(0).fault_set_req(clk::Timestamp{1, 0});
  p(0).fault_set_view(1, clk::Timestamp{50, 1});
  p(0).fault_set_view(2, clk::Timestamp{50, 2});
  EXPECT_TRUE(p(0).hungry());
  p(0).poll();
  EXPECT_TRUE(p(0).eating());
}

TEST_F(RaTest, StateObserverSeesProgramTransitions) {
  std::vector<std::pair<TmeState, TmeState>> transitions;
  p(0).add_state_observer([&](TmeState from, TmeState to) {
    transitions.emplace_back(from, to);
  });
  p(0).request_cs();
  settle();
  p(0).release_cs();
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0],
            std::make_pair(TmeState::kThinking, TmeState::kHungry));
  EXPECT_EQ(transitions[1],
            std::make_pair(TmeState::kHungry, TmeState::kEating));
  EXPECT_EQ(transitions[2],
            std::make_pair(TmeState::kEating, TmeState::kThinking));
}

TEST_F(RaTest, CorruptionDoesNotFireStateObserver) {
  int fired = 0;
  p(0).add_state_observer([&](TmeState, TmeState) { ++fired; });
  p(0).fault_set_state(TmeState::kEating);
  EXPECT_EQ(fired, 0);
}

TEST_F(RaTest, MonotoneViewOptionRefusesDowngrade) {
  sim::Scheduler s2;
  net::Network n2(s2, 2, net::DelayModel::fixed(1), Rng(6));
  RicartAgrawalaOptions opts;
  opts.monotone_views = true;
  RicartAgrawala a(0, n2, opts), b(1, n2);
  n2.set_handler(0, [&](const net::Message& m) { a.on_message(m); });
  n2.set_handler(1, [&](const net::Message& m) { b.on_message(m); });
  a.fault_set_view(1, clk::Timestamp{1'000'000, 1});
  b.request_cs();
  s2.run_all();
  // The ablation variant keeps the corrupted-high view forever.
  EXPECT_EQ(a.view_of(1).counter, 1'000'000u);
}

TEST(RaSingleProcess, EntersImmediatelyWithNoPeers) {
  sim::Scheduler sched;
  net::Network net(sched, 1, net::DelayModel::fixed(1), Rng(7));
  RicartAgrawala solo(0, net);
  net.set_handler(0, [&](const net::Message& m) { solo.on_message(m); });
  solo.request_cs();
  EXPECT_TRUE(solo.eating());
  solo.release_cs();
  EXPECT_TRUE(solo.thinking());
}

}  // namespace
}  // namespace graybox::me
