// Cross-cutting property sweeps (parameterized): fault-free specification
// conformance over the full configuration grid, recovery under continuous
// fault pressure once it stops, and structural properties of the traffic.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/harness.hpp"
#include "protocol_param.hpp"

namespace graybox::core {
namespace {

// --- Grid: n x algorithm x delay model, fault-free ---------------------------

struct GridParam {
  std::size_t n;
  test::Protocol protocol;
  SimTime delay_min;
  SimTime delay_max;
};

class FaultFreeGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(FaultFreeGrid, TmeSpecHolds) {
  const GridParam param = GetParam();
  HarnessConfig config;
  config.n = param.n;
  config.algorithm = test::registry_name(param.protocol);
  config.wrapped = true;
  config.wrapper.resend_period = 25;
  config.delay = net::DelayModel::uniform(param.delay_min, param.delay_max);
  config.client.think_mean = 50;
  config.client.eat_mean = 6;
  config.seed = 17 * param.n + static_cast<std::uint64_t>(param.protocol);
  SystemHarness h(config);
  h.start();
  h.run_for(4000);
  h.drain(3000);

  EXPECT_EQ(h.tme_monitors().me1->total_violations(), 0u);
  EXPECT_EQ(h.tme_monitors().me3->total_violations(), 0u);
  EXPECT_EQ(h.tme_monitors().invariant_i->total_violations(), 0u);
  EXPECT_FALSE(h.tme_monitors().me2->starvation_at_end());
  EXPECT_TRUE(h.structural_monitor().clean());
  EXPECT_TRUE(h.fifo_monitor().clean());
  EXPECT_TRUE(h.send_monitor().clean());
  EXPECT_GT(h.stats().cs_entries, 0u);
}

std::vector<GridParam> grid() {
  std::vector<GridParam> params;
  for (const std::size_t n : {2u, 3u, 6u, 9u}) {
    for (const test::Protocol protocol :
         {test::Protocol::kRicartAgrawala, test::Protocol::kLamport}) {
      params.push_back(GridParam{n, protocol, 1, 1});    // fixed fast
      params.push_back(GridParam{n, protocol, 1, 30});   // widely variable
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Grid, FaultFreeGrid, ::testing::ValuesIn(grid()),
                         [](const auto& info) {
                           const GridParam& p = info.param;
                           std::string name = "n" + std::to_string(p.n);
                           name += p.protocol == test::Protocol::kRicartAgrawala
                                       ? "_ra"
                                       : "_lamport";
                           name += "_d" + std::to_string(p.delay_max);
                           return name;
                         });

// --- Continuous fault pressure, then calm -------------------------------------

TEST(ContinuousPressure, CleanSuffixAfterFaultsStop) {
  // Seeds 400..405, fanned out by the engine (jobs > 1 also exercises the
  // concurrent scripted_fault path: the callable captures nothing and each
  // call only touches its own harness).
  HarnessConfig config;
  config.n = 4;
  config.algorithm = "ricart-agrawala";
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 35;
  config.client.eat_mean = 6;
  config.seed = 400;

  FaultScenario scenario;
  scenario.warmup = 300;
  scenario.observation = 8700;
  scenario.drain = 4000;
  // One random fault every 150 ticks for 3000 ticks, then calm.
  scenario.scripted_fault = [](SystemHarness& h) {
    const SimTime now = h.scheduler().now();
    h.faults().schedule_continuous(now, now + 3000, 150,
                                   net::FaultMix::all());
  };

  const RepeatedResult result = repeat_fault_experiment(
      config, scenario, /*trials=*/6, /*jobs=*/2);
  // Every seed recovered once the pressure stopped...
  EXPECT_TRUE(result.all_stabilized())
      << result.stabilized << "/" << result.trials << " stabilized";
  EXPECT_EQ(result.starved, 0u);
  // ...and service resumed in every trial after the fault window.
  ASSERT_EQ(result.cs_entries.count(), 6u);
  EXPECT_GT(result.cs_entries.min(), 20.0);
}

// --- Traffic structure ------------------------------------------------------------

TEST(TrafficShape, RicartAgrawalaMessageComplexity) {
  // Fault-free RA: 2(n-1) messages per CS entry, exactly (Ricart-Agrawala's
  // optimality claim), since every request triggers one reply.
  HarnessConfig config;
  config.n = 5;
  config.algorithm = "ricart-agrawala";
  config.wrapped = false;  // isolate protocol traffic
  config.client.think_mean = 60;
  config.client.eat_mean = 5;
  config.seed = 321;
  SystemHarness h(config);
  h.start();
  h.run_for(6000);
  h.drain(3000);
  const RunStats stats = h.stats();
  ASSERT_GT(stats.cs_entries, 0u);
  EXPECT_EQ(stats.messages_sent, stats.cs_entries * 2 * (config.n - 1));
  EXPECT_EQ(stats.sent_request, stats.sent_reply);
}

TEST(TrafficShape, LamportMessageComplexity) {
  // Fault-free Lamport: 3(n-1) per entry (request + reply + release).
  HarnessConfig config;
  config.n = 5;
  config.algorithm = "lamport";
  config.wrapped = false;
  config.client.think_mean = 60;
  config.client.eat_mean = 5;
  config.seed = 321;
  SystemHarness h(config);
  h.start();
  h.run_for(6000);
  h.drain(3000);
  const RunStats stats = h.stats();
  ASSERT_GT(stats.cs_entries, 0u);
  EXPECT_EQ(stats.messages_sent, stats.cs_entries * 3 * (config.n - 1));
  EXPECT_EQ(stats.sent_request, stats.sent_reply);
  EXPECT_EQ(stats.sent_request, stats.sent_release);
}

TEST(TrafficShape, WrapperSilentInFaultFreeRuns) {
  // Interference freedom in traffic terms: while the system is consistent,
  // the refined wrapper sends only during hungry phases where views are
  // still catching up — with delta larger than the longest wait, nothing.
  HarnessConfig config;
  config.n = 4;
  config.algorithm = "ricart-agrawala";
  config.wrapped = true;
  config.wrapper.resend_period = 100000;  // effectively never fires mid-wait
  config.client.think_mean = 50;
  config.client.eat_mean = 5;
  config.seed = 11;
  SystemHarness h(config);
  h.start();
  h.run_for(8000);
  EXPECT_EQ(h.stats().wrapper_messages, 0u);
}

TEST(TrafficShape, DrainedSystemGoesQuiet) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = "lamport";
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = 13;
  SystemHarness h(config);
  h.start();
  h.run_for(3000);
  h.drain(3000);
  EXPECT_TRUE(h.quiescent());
  EXPECT_EQ(h.network().in_flight(), 0u);
}

// --- Determinism across the grid -----------------------------------------------

TEST(Determinism, FaultyRunsReplayExactly) {
  auto run = [] {
    HarnessConfig config;
    config.n = 4;
    config.algorithm = "lamport";
    config.wrapped = true;
    config.seed = 555;
    SystemHarness h(config);
    h.start();
    h.faults().schedule_burst(500, 10, net::FaultMix::all());
    h.run_for(4000);
    h.drain(2000);
    return h.stats();
  };
  const RunStats a = run(), b = run();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.cs_entries, b.cs_entries);
  EXPECT_EQ(a.me1_violations, b.me1_violations);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

}  // namespace
}  // namespace graybox::core
