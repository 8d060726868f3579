// The negative control: FragileMe implements Lspec from initial states but
// not everywhere, and the graybox wrapper demonstrably fails to stabilize
// it — the executable content of Figure 1 and of Theorem 8's premise.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/harness.hpp"
#include "me/fragile.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "wrapper/graybox_wrapper.hpp"

namespace graybox {
namespace {

using me::FragileMe;
using me::TmeState;

class FragileRig {
 public:
  explicit FragileRig(bool wrapped)
      : net(sched, 2, net::DelayModel::fixed(1), Rng(5)) {
    for (ProcessId pid = 0; pid < 2; ++pid) {
      procs.push_back(std::make_unique<FragileMe>(pid, net));
      auto* p = procs.back().get();
      net.set_handler(pid,
                      [p](const net::Message& m) { p->on_message(m); });
    }
    if (wrapped) {
      for (ProcessId pid = 0; pid < 2; ++pid) {
        wrappers.push_back(std::make_unique<wrapper::GrayboxWrapper>(
            sched, net, *procs[pid],
            wrapper::WrapperConfig{.resend_period = 10}));
        wrappers.back()->start();
      }
    }
  }
  FragileMe& p(ProcessId pid) { return *procs[pid]; }

  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<FragileMe>> procs;
  std::vector<std::unique_ptr<wrapper::GrayboxWrapper>> wrappers;
};

TEST(Fragile, FaultFreeProtocolIsCorrect) {
  // [FragileMe => Lspec]init: from initial states it is indistinguishable
  // from Ricart-Agrawala.
  FragileRig rig(/*wrapped=*/false);
  rig.p(0).request_cs();
  rig.p(1).request_cs();
  rig.sched.run_all();
  EXPECT_TRUE(rig.p(0).eating());
  EXPECT_TRUE(rig.p(1).hungry());
  rig.p(0).release_cs();
  rig.sched.run_all();
  EXPECT_TRUE(rig.p(1).eating());
}

TEST(Fragile, IgnoresResentRequestWhenFlagCorrupted) {
  // The everywhere-violation in isolation: with received(j.REQk) corrupted
  // to true, Reply Spec is broken — a fresh request gets no reply.
  FragileRig rig(/*wrapped=*/false);
  rig.p(1).fault_set_received(0, true);
  rig.p(0).request_cs();
  rig.sched.run_all();
  EXPECT_TRUE(rig.p(0).hungry());  // no reply ever came
  EXPECT_EQ(rig.net.sent_of_type(net::MsgType::kReply), 0u);
}

TEST(Fragile, WrapperCannotRepairTheCorruptedFlag) {
  // Theorem 8's conclusion fails: the SAME wrapper that stabilizes RA and
  // Lamport resends forever and FragileMe ignores every resend.
  FragileRig rig(/*wrapped=*/true);
  rig.p(1).fault_set_received(0, true);
  rig.p(0).request_cs();
  rig.sched.run_until(5000);
  EXPECT_TRUE(rig.p(0).hungry());              // wedged despite the wrapper
  EXPECT_GT(rig.net.sent_by_wrapper(), 100u);  // it certainly tried
  EXPECT_EQ(rig.net.sent_of_type(net::MsgType::kReply), 0u);
}

TEST(Fragile, SameFaultIsRepairedOnRealRicartAgrawala) {
  // Control for the control: genuine RA heals the identical corruption,
  // isolating the fragile shortcut as the cause.
  sim::Scheduler sched;
  net::Network net(sched, 2, net::DelayModel::fixed(1), Rng(5));
  me::RicartAgrawala a(0, net), b(1, net);
  net.set_handler(0, [&](const net::Message& m) { a.on_message(m); });
  net.set_handler(1, [&](const net::Message& m) { b.on_message(m); });
  wrapper::GrayboxWrapper w(sched, net, a, {.resend_period = 10});
  w.start();
  b.fault_set_received(0, true);
  a.request_cs();
  sched.run_until(5000);
  EXPECT_TRUE(a.eating());
}

TEST(Fragile, EndToEndStabilizationFailureUnderProcessCorruption) {
  // Through the full harness: hammer FragileMe with process corruptions
  // across seeds. The wedge state is reachable, so at least one run must
  // fail to stabilize — whereas RicartAgrawala under the identical
  // adversary never does.
  std::size_t fragile_failures = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    core::HarnessConfig config;
    config.n = 3;
    config.algorithm = "fragile-ra";
    config.wrapped = true;
    config.wrapper.resend_period = 15;
    config.client.think_mean = 30;
    config.client.eat_mean = 5;
    config.seed = 1000 + seed;

    core::FaultScenario scenario;
    scenario.warmup = 400;
    scenario.burst = 8;
    scenario.mix = net::FaultMix::process_only();
    scenario.observation = 5000;
    scenario.drain = 4000;

    auto result = core::run_fault_experiment(config, scenario);
    if (!result.report.stabilized) ++fragile_failures;

    config.algorithm = "ricart-agrawala";
    result = core::run_fault_experiment(config, scenario);
    EXPECT_TRUE(result.report.stabilized)
        << "RA failed under seed " << config.seed << ": "
        << result.report.to_string();
  }
  EXPECT_GT(fragile_failures, 0u)
      << "the fragile wedge never triggered; adversary too weak";
}

}  // namespace
}  // namespace graybox
