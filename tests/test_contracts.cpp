// Contract-violation death tests: programming errors (as opposed to
// simulated faults) must abort loudly, and the umbrella header must
// compile standalone.
#include <gtest/gtest.h>

#include "graybox.hpp"

namespace graybox {
namespace {

using CoreContracts = ::testing::Test;

TEST(Contracts, SchedulerRejectsPastScheduling) {
  EXPECT_DEATH(
      {
        sim::Scheduler sched;
        sched.schedule_at(10, [] {});
        sched.run_until(10);
        sched.schedule_at(5, [] {});  // in the past
      },
      "precondition");
}

TEST(Contracts, SchedulerRejectsNullEvent) {
  EXPECT_DEATH(
      {
        sim::Scheduler sched;
        sched.schedule_at(1, sim::Scheduler::EventFn{});
      },
      "precondition");
}

TEST(Contracts, RngRejectsInvertedBounds) {
  EXPECT_DEATH(
      {
        Rng rng(1);
        (void)rng.uniform(10, 5);
      },
      "precondition");
}

TEST(Contracts, NetworkRejectsSelfChannel) {
  EXPECT_DEATH(
      {
        sim::Scheduler sched;
        net::Network net(sched, 2, net::DelayModel::fixed(1), Rng(1));
        (void)net.channel(1, 1);
      },
      "precondition");
}

TEST(Contracts, BitsetRejectsOutOfRange) {
  EXPECT_DEATH(
      {
        algebra::Bitset bs(4);
        (void)bs.test(4);
      },
      "precondition");
}

TEST(Contracts, SystemRejectsForeignStates) {
  EXPECT_DEATH(
      {
        algebra::System sys(3);
        sys.add_transition(0, 3);
      },
      "precondition");
}

TEST(Contracts, ChecksRejectMismatchedStateSpaces) {
  EXPECT_DEATH(
      {
        algebra::System a(2);
        algebra::System c(3);
        a.add_transition(0, 0);
        a.add_transition(1, 1);
        a.set_initial(0);
        c.ensure_total();
        c.set_initial(0);
        (void)algebra::implements_init(c, a);
      },
      "precondition");
}

TEST(Contracts, HarnessRejectsMismatchedAlgorithmVector) {
  // Fails fast in the constructor — never silently falls back to
  // `algorithm` for the unnamed processes.
  EXPECT_DEATH(
      {
        core::HarnessConfig config;
        config.n = 3;
        config.per_process_algorithms = {"lamport"};
        core::SystemHarness h(config);
      },
      "precondition");
}

TEST(Contracts, HarnessRejectsOversizedAlgorithmVector) {
  // Too many entries is just as much a misconfiguration as too few.
  EXPECT_DEATH(
      {
        core::HarnessConfig config;
        config.n = 2;
        config.per_process_algorithms.assign(3, "lamport");
        core::SystemHarness h(config);
      },
      "precondition");
}

TEST(Contracts, HarnessAcceptsExactOrEmptyAlgorithmVector) {
  core::HarnessConfig config;
  config.n = 2;
  core::SystemHarness homogeneous(config);  // empty vector: all `algorithm`
  EXPECT_EQ(homogeneous.process(0).algorithm(),
            homogeneous.process(1).algorithm());

  config.per_process_algorithms = {"ricart-agrawala",
                                   "lamport"};
  core::SystemHarness mixed(config);  // size == n: honoured per process
  EXPECT_EQ(mixed.process(1).algorithm(), "lamport");
}

TEST(Contracts, ProcessRejectsOutOfRangePeerQueries) {
  EXPECT_DEATH(
      {
        sim::Scheduler sched;
        net::Network net(sched, 2, net::DelayModel::fixed(1), Rng(1));
        me::RicartAgrawala p(0, net);
        (void)p.knows_earlier(7);
      },
      "precondition");
}

TEST(Contracts, FaultProcessRejectsPartitionsAboveSixtyFourProcesses) {
  // Partition masks are 64-bit; the partition stream is refused up front
  // rather than building a mask that cannot name every process.
  EXPECT_DEATH(
      {
        sim::Scheduler sched;
        net::Network net(sched, 65, net::DelayModel::fixed(1), Rng(1));
        net::FaultInjector injector(sched, net, Rng(2),
                                    [](ProcessId, Rng&) {});
        net::FaultProcessConfig fp;
        fp.partition_mean = 100;
        net::FaultProcess load(sched, injector, 65, fp, Rng(3));
      },
      "precondition");
}

TEST(UmbrellaHeader, ExposesEveryLayer) {
  // Touch one symbol per layer so a missing include in graybox.hpp fails
  // this test at compile time.
  (void)sizeof(Rng);
  (void)sizeof(sim::Scheduler);
  (void)sizeof(clk::Timestamp);
  (void)sizeof(net::Message);
  (void)sizeof(algebra::System);
  (void)sizeof(spec::Violation);
  (void)sizeof(me::RicartAgrawala);
  (void)sizeof(lspec::GlobalSnapshot);
  (void)sizeof(wrapper::GrayboxWrapper);
  (void)sizeof(core::SystemHarness);
  SUCCEED();
}

}  // namespace
}  // namespace graybox
