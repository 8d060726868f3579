// Carvalho-Roucairol: unit tests for the retained-permission optimization
// (grant, fast entry, surrender, the re-request rule, the lease), and the
// extended-reusability claim — the byte-for-byte unchanged GrayboxWrapper
// stabilizes CR across the full E8 fault matrix, including the
// double-permission corruption that bare CR can never detect.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/harness.hpp"
#include "me/carvalho_roucairol.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace graybox::me {
namespace {

class CrTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;

  explicit CrTest(CarvalhoRoucairolOptions options = {})
      : net(sched, kN, net::DelayModel::fixed(1), Rng(5)) {
    for (ProcessId pid = 0; pid < kN; ++pid) {
      procs.push_back(
          std::make_unique<CarvalhoRoucairol>(pid, net, options));
      auto* p = procs.back().get();
      net.set_handler(pid,
                      [p](const net::Message& m) { p->on_message(m); });
    }
  }

  CarvalhoRoucairol& p(ProcessId pid) { return *procs[pid]; }
  void settle() { sched.run_all(); }

  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<CarvalhoRoucairol>> procs;
};

TEST_F(CrTest, FirstEntryUsesTheFullHandshake) {
  p(0).request_cs();
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), kN - 1);
  settle();
  EXPECT_TRUE(p(0).eating());
  // Every REPLY granted its sender's permission, lease fresh.
  EXPECT_TRUE(p(0).authorized(1));
  EXPECT_TRUE(p(0).authorized(2));
  EXPECT_EQ(p(0).uses(1), 0u);
}

TEST_F(CrTest, ConsecutiveEntrySendsNoRequests) {
  p(0).request_cs();
  settle();
  p(0).release_cs();
  settle();
  const std::uint64_t requests_before =
      net.sent_of_type(net::MsgType::kRequest);

  // The CR saving: permissions retained from the first round cover the
  // second request entirely — entry is immediate and message-free.
  p(0).request_cs();
  EXPECT_TRUE(p(0).eating());
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), requests_before);
  EXPECT_TRUE(p(0).relied(1));
  EXPECT_TRUE(p(0).relied(2));
  EXPECT_EQ(p(0).uses(1), 1u);
}

TEST_F(CrTest, PeerRequestSurrendersTheRetainedPermission) {
  p(0).request_cs();
  settle();
  p(0).release_cs();
  settle();
  ASSERT_TRUE(p(0).authorized(1));

  // 1's REQUEST reaches thinking 0, which replies — the pair's token moves
  // to 1, so 0's retained permission from 1 is gone.
  p(1).request_cs();
  settle();
  EXPECT_TRUE(p(1).eating());
  EXPECT_FALSE(p(0).authorized(1));
  EXPECT_TRUE(p(0).authorized(2));  // the 0-2 pair is untouched
  EXPECT_TRUE(p(1).authorized(0));
}

TEST_F(CrTest, SurrenderWhileRelyingTriggersTheReRequest) {
  // Put 0 in the adversarial spot directly: hungry, relying on a retained
  // permission from 2, with a request timestamp later than 2's incoming
  // one (so 0 must yield rather than defer).
  p(0).fault_set_state(TmeState::kHungry);
  p(0).fault_set_req(clk::Timestamp{50, 0});
  p(0).fault_set_clock(50);
  p(0).fault_set_authorized(2, true);
  p(0).fault_set_relied(2, true);

  const std::uint64_t requests_before =
      net.sent_of_type(net::MsgType::kRequest);
  p(2).request_cs();  // fresh clock: ts well below 0's req
  settle();

  // 0 surrendered the permission it was relying on, and chased its
  // outstanding request with the REQUEST it had optimized away.
  EXPECT_FALSE(p(0).authorized(2));
  EXPECT_FALSE(p(0).relied(2));
  EXPECT_GE(net.sent_of_type(net::MsgType::kRequest) - requests_before, 3u)
      << "expected 2's broadcast (2 msgs) plus 0's re-request";
}

class CrLeaseTest : public CrTest {
 protected:
  CrLeaseTest() : CrTest(CarvalhoRoucairolOptions{.lease = 2}) {}
};

TEST_F(CrLeaseTest, LeaseExhaustionRestoresTheHandshake) {
  p(0).request_cs();  // full handshake
  settle();
  const std::uint64_t after_first = net.sent_of_type(net::MsgType::kRequest);

  // Two fast entries consume the lease...
  for (int i = 0; i < 2; ++i) {
    p(0).release_cs();
    settle();
    p(0).request_cs();
    ASSERT_TRUE(p(0).eating()) << "fast entry " << i;
  }
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), after_first);
  EXPECT_EQ(p(0).uses(1), 2u);

  // ...so the next request is plain Ricart-Agrawala again, and the fresh
  // REPLYs restart the lease.
  p(0).release_cs();
  settle();
  p(0).request_cs();
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), after_first + kN - 1);
  settle();
  EXPECT_TRUE(p(0).eating());
  EXPECT_EQ(p(0).uses(1), 0u);
}

TEST_F(CrLeaseTest, SpentLeaseNeverCoversARequest) {
  // The everywhere-modification, pinned at the unit level: a (possibly
  // corrupt) retained permission whose lease is spent is re-requested, so
  // a fault-planted duplicate permission survives at most `lease` cycles.
  p(0).fault_set_authorized(1, true);
  p(0).fault_set_uses(1, p(0).lease());
  p(0).request_cs();
  EXPECT_FALSE(p(0).relied(1));
  EXPECT_EQ(net.sent_of_type(net::MsgType::kRequest), kN - 1);
}

}  // namespace
}  // namespace graybox::me

namespace graybox::core {
namespace {

HarnessConfig cr_config(std::uint64_t seed, bool wrapped) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = "carvalho-roucairol";
  config.wrapped = wrapped;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 35;
  config.client.eat_mean = 7;
  config.seed = seed;
  return config;
}

TEST(CrHarness, InstallsTheMutualBeliefMonitorInsteadOfPerViewTruth) {
  // CR opts out of view_entry_truth, so the battery swaps Invariant I's
  // per-view reading for the pairwise mutual-belief monitor.
  SystemHarness h(cr_config(1, true));
  EXPECT_NE(h.tme_monitors().mutual_belief, nullptr);

  SystemHarness ra(HarnessConfig{});
  EXPECT_EQ(ra.tme_monitors().mutual_belief, nullptr);
}

TEST(CrHarness, WrappedFaultFreeRunIsClean) {
  SystemHarness h(cr_config(2, true));
  h.start();
  h.run_for(6000);
  h.drain(4000);
  EXPECT_EQ(h.monitors().total_violations(), 0u);
  EXPECT_FALSE(h.tme_monitors().me2->starvation_at_end());
  EXPECT_GT(h.stats().cs_entries, 20u);
  for (ProcessId pid = 0; pid < 4; ++pid)
    EXPECT_GT(h.process(pid).cs_entries(), 0u);
}

TEST(CrHarness, Me3ExemptsTheLeasedFastPathOvertake) {
  // Quickstart's exact fault-free configuration (n=5, seed 1, default
  // client cadence) makes a leased re-entry overtake a causally earlier
  // open request at t=367 — real CR behaviour, not a bug: the fast path
  // trades FCFS for message-free consecutive entries. CR's registry record
  // opts out of SpecConformance::fcfs, so ME3 must stay silent while still
  // checking every entry.
  HarnessConfig config;
  config.n = 5;
  config.algorithm = "carvalho-roucairol";
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.seed = 1;
  SystemHarness h(config);
  h.start();
  h.run_for(2000);
  EXPECT_EQ(h.monitors().total_violations(), 0u);
  EXPECT_GT(h.tme_monitors().me3->entries_checked(), 0u);

  // The exemption is per-process, not global: the same cadence under RA
  // keeps the full FCFS check and is genuinely first-come first-serve.
  config.algorithm = "ricart-agrawala";
  SystemHarness ra(config);
  ra.start();
  ra.run_for(2000);
  EXPECT_EQ(ra.monitors().total_violations(), 0u);
}

TEST(CrStabilization, UnchangedWrapperStabilizesAcrossTheFullFaultMatrix) {
  // The extended-reusability claim (Corollary 11 applied to an algorithm
  // the wrapper has never seen): every E8 fault kind, the same W'.
  const net::FaultKind kinds[] = {
      net::FaultKind::kMessageDrop,     net::FaultKind::kMessageDuplicate,
      net::FaultKind::kMessageCorrupt,  net::FaultKind::kMessageReorder,
      net::FaultKind::kSpuriousMessage, net::FaultKind::kProcessCorrupt,
      net::FaultKind::kChannelClear};
  for (const net::FaultKind kind : kinds) {
    FaultScenario scenario;
    scenario.warmup = 600;
    scenario.burst = 12;
    scenario.mix = net::FaultMix::only(kind);
    scenario.observation = 7000;
    scenario.drain = 5000;
    const RepeatedResult result = repeat_fault_experiment(
        cr_config(900, true), scenario, /*trials=*/4, /*jobs=*/2);
    EXPECT_TRUE(result.all_stabilized())
        << net::to_string(kind) << ": " << result.stabilized << "/"
        << result.trials << " stabilized";
  }
}

TEST(CrStabilization, WrapperHealsAFaultPlantedDoublePermission) {
  // The scenario bare CR cannot detect: both sides of a pair hold the
  // permission, both relied flags set — the handshake that would expose
  // the collision has been optimized away on both sides. The lease plus
  // the wrapper's resend restore single ownership and the run stabilizes.
  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = 0;
  scenario.observation = 7000;
  scenario.drain = 5000;
  scenario.scripted_fault = [](SystemHarness& h) {
    auto* a = dynamic_cast<me::CarvalhoRoucairol*>(&h.process(0));
    auto* b = dynamic_cast<me::CarvalhoRoucairol*>(&h.process(1));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    a->fault_set_authorized(1, true);
    a->fault_set_uses(1, 0);
    b->fault_set_authorized(0, true);
    b->fault_set_uses(0, 0);
  };
  const ExperimentResult result =
      run_fault_experiment(cr_config(31, true), scenario);
  EXPECT_TRUE(result.report.stabilized) << result.report.to_string();
  // The report's safety count is the sum of the four safety monitors'
  // counters, Mutual Belief included — the one count every cell records.
  const RunStats& s = result.stats;
  EXPECT_GT(result.report.violations_total, 0u);
  EXPECT_EQ(result.report.violations_total,
            s.me1_violations + s.me3_violations + s.invariant_violations +
                s.mutual_belief_violations);
}

TEST(CrStabilization, BareCrLosesRunsTheWrapperSaves) {
  // Negative control for the reusability claim: under process corruption
  // some seed wedges bare CR (corrupt retained permissions / views) that
  // the wrapped run recovers. Scan a small seed window for one.
  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = 12;
  scenario.mix = net::FaultMix::only(net::FaultKind::kProcessCorrupt);
  scenario.observation = 7000;
  scenario.drain = 5000;

  bool found_divergence = false;
  for (std::uint64_t seed = 950; seed < 966 && !found_divergence; ++seed) {
    const ExperimentResult bare =
        run_fault_experiment(cr_config(seed, false), scenario);
    if (bare.report.stabilized) continue;
    const ExperimentResult wrapped =
        run_fault_experiment(cr_config(seed, true), scenario);
    found_divergence = wrapped.report.stabilized;
  }
  EXPECT_TRUE(found_divergence)
      << "no seed in [950,966) wedged bare CR while wrapped CR recovered";
}

}  // namespace
}  // namespace graybox::core
