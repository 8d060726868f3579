// Integration tests for the headline result (Theorem 8 / Corollary 11 made
// executable): wrapped everywhere-implementations stabilize after arbitrary
// fault bursts; parameterized across algorithms, fault kinds, burst sizes,
// and seeds.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "protocol_param.hpp"

namespace graybox::core {
namespace {

HarnessConfig wrapped_config(const std::string& algo, std::uint64_t seed) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 40;
  config.client.eat_mean = 8;
  config.seed = seed;
  return config;
}

FaultScenario burst_scenario(std::size_t burst, net::FaultMix mix) {
  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = burst;
  scenario.mix = mix;
  scenario.observation = 6000;
  scenario.drain = 4000;
  return scenario;
}

// --- Per-fault-kind recovery (the paper's full fault model, one kind at a
// time so a regression names the failing kind) -----------------------------

class FaultKindRecovery
    : public ::testing::TestWithParam<
          std::tuple<test::Protocol, net::FaultKind, std::uint64_t>> {};

TEST_P(FaultKindRecovery, WrappedSystemStabilizes) {
  const auto [protocol, kind, seed] = GetParam();
  const std::string algo = test::registry_name(protocol);
  const auto result =
      run_fault_experiment(wrapped_config(algo, seed),
                           burst_scenario(6, net::FaultMix::only(kind)));
  EXPECT_TRUE(result.report.stabilized)
      << "algo=" << algo << " kind=" << net::to_string(kind)
      << " seed=" << seed << " -> " << result.report.to_string();
  // Post-fault progress actually happened.
  EXPECT_GT(result.stats.cs_entries, 0u);
}

std::string fault_kind_name(
    const ::testing::TestParamInfo<
        std::tuple<test::Protocol, net::FaultKind, std::uint64_t>>& info) {
  std::string name = test::registry_name(std::get<0>(info.param));
  name += "_";
  name += net::to_string(std::get<1>(info.param));
  name += "_s" + std::to_string(std::get<2>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultKindRecovery,
    ::testing::Combine(
        ::testing::Values(test::Protocol::kRicartAgrawala,
                          test::Protocol::kLamport),
        ::testing::Values(net::FaultKind::kMessageDrop,
                          net::FaultKind::kMessageDuplicate,
                          net::FaultKind::kMessageCorrupt,
                          net::FaultKind::kMessageReorder,
                          net::FaultKind::kSpuriousMessage,
                          net::FaultKind::kProcessCorrupt,
                          net::FaultKind::kChannelClear),
        ::testing::Values(11u, 29u)),
    fault_kind_name);

// --- Mixed bursts of increasing size -----------------------------------------

class MixedBurstRecovery
    : public ::testing::TestWithParam<
          std::tuple<test::Protocol, std::size_t>> {};

TEST_P(MixedBurstRecovery, WrappedSystemStabilizes) {
  const auto [protocol, burst] = GetParam();
  const auto result = run_fault_experiment(
      wrapped_config(test::registry_name(protocol), 5 + burst),
      burst_scenario(burst, net::FaultMix::all()));
  EXPECT_TRUE(result.report.stabilized)
      << "burst=" << burst << " -> " << result.report.to_string();
}

std::string burst_name(
    const ::testing::TestParamInfo<std::tuple<test::Protocol, std::size_t>>&
        info) {
  std::string name = test::registry_name(std::get<0>(info.param));
  name += "_burst" + std::to_string(std::get<1>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Bursts, MixedBurstRecovery,
    ::testing::Combine(
        ::testing::Values(test::Protocol::kRicartAgrawala,
                          test::Protocol::kLamport),
        ::testing::Values(std::size_t{1}, std::size_t{5}, std::size_t{15},
                          std::size_t{40})),
    burst_name);

// --- Seed sweep: many adversaries against the default config ------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RicartAgrawalaStabilizes) {
  const auto result =
      run_fault_experiment(wrapped_config("ricart-agrawala",
                                          GetParam()),
                           burst_scenario(12, net::FaultMix::all()));
  EXPECT_TRUE(result.report.stabilized) << result.report.to_string();
}

TEST_P(SeedSweep, LamportStabilizes) {
  const auto result = run_fault_experiment(
      wrapped_config("lamport", GetParam()),
      burst_scenario(12, net::FaultMix::all()));
  EXPECT_TRUE(result.report.stabilized) << result.report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range(std::uint64_t{100},
                                          std::uint64_t{110}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- The contrast the wrapper makes --------------------------------------------

TEST(BareSystem, CanFailToRecoverFromChannelClears) {
  // Without the wrapper the paper gives a concrete non-recovery scenario
  // (Section 4). Bare systems may survive some bursts by luck; this test
  // pins a scripted loss pattern where they provably cannot: all requests
  // of two concurrent competitors are cleared.
  HarnessConfig config = wrapped_config("ricart-agrawala", 3);
  config.wrapped = false;
  config.client.wants_cs = false;  // scripted requests only

  FaultScenario scenario;
  scenario.warmup = 100;
  scenario.observation = 6000;
  scenario.drain = 4000;
  scenario.scripted_fault = [](SystemHarness& h) {
    h.process(0).request_cs();
    h.process(1).request_cs();
    const std::size_t n = h.network().size();
    for (ProcessId to = 0; to < n; ++to) {
      if (to != 0) h.network().channel(0, to).fault_clear();
      if (to != 1) h.network().channel(1, to).fault_clear();
    }
  };
  const auto result = run_fault_experiment(config, scenario);
  EXPECT_FALSE(result.report.stabilized);
  EXPECT_TRUE(result.report.starvation);
}

TEST(WrappedSystem, RecoversFromTheSameScriptedLoss) {
  HarnessConfig config = wrapped_config("ricart-agrawala", 3);
  config.client.wants_cs = false;

  FaultScenario scenario;
  scenario.warmup = 100;
  scenario.observation = 6000;
  scenario.drain = 4000;
  scenario.scripted_fault = [](SystemHarness& h) {
    h.process(0).request_cs();
    h.process(1).request_cs();
    const std::size_t n = h.network().size();
    for (ProcessId to = 0; to < n; ++to) {
      if (to != 0) h.network().channel(0, to).fault_clear();
      if (to != 1) h.network().channel(1, to).fault_clear();
    }
  };
  const auto result = run_fault_experiment(config, scenario);
  EXPECT_TRUE(result.report.stabilized) << result.report.to_string();
  EXPECT_EQ(result.stats.cs_entries, 2u);  // both scripted requests served
}

// --- Latency sanity --------------------------------------------------------------

TEST(StabilizationLatency, BoundedByScenarioWindow) {
  const auto result = run_fault_experiment(
      wrapped_config("ricart-agrawala", 77),
      burst_scenario(10, net::FaultMix::all()));
  ASSERT_TRUE(result.report.stabilized);
  // The latency is measured from the last fault and must fit well inside
  // the observation window (otherwise the window is too tight to trust).
  EXPECT_LT(result.report.latency, 6000u);
}

// --- Soak: sustained adversarial pressure at scale ------------------------------

class SoakTest : public ::testing::TestWithParam<test::Protocol> {};

TEST_P(SoakTest, SurvivesLongContinuousPressureThenStabilizes) {
  // 400 random faults of every kind over 20,000 ticks against a 6-process
  // wrapped system, then calm: the entire point of stabilization is that
  // the amount of prior damage is irrelevant once faults stop.
  HarnessConfig config = wrapped_config(test::registry_name(GetParam()), 4242);
  config.n = 6;
  SystemHarness h(config);
  h.start();
  h.faults().schedule_continuous(200, 20200, 50, net::FaultMix::all());
  h.run_for(26000);
  h.drain(6000);
  const StabilizationReport report = h.stabilization_report();
  EXPECT_TRUE(report.stabilized) << report.to_string();
  EXPECT_GT(h.faults().total_injected(), 300u);
  EXPECT_TRUE(h.quiescent());
  // Service kept flowing throughout the bombardment.
  EXPECT_GT(h.stats().cs_entries, 100u);
  // The clean suffix: no safety violation within the calm tail.
  if (report.last_safety_violation != kNever) {
    EXPECT_LT(report.last_safety_violation, 25000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SoakTest,
                         ::testing::Values(test::Protocol::kRicartAgrawala,
                                           test::Protocol::kLamport),
                         [](const auto& info) {
                           return info.param == test::Protocol::kRicartAgrawala
                                      ? "ra"
                                      : "lamport";
                         });

TEST(StabilizationLatency, ZeroWhenBurstCausesNoViolation) {
  // A single dropped message can be fully absorbed (e.g. a stale reply):
  // then the report shows no post-fault violations.
  HarnessConfig config = wrapped_config("ricart-agrawala", 200);
  config.client.think_mean = 1000;  // rare competition
  FaultScenario scenario = burst_scenario(1, net::FaultMix::only(
                                                 net::FaultKind::kMessageDrop));
  const auto result = run_fault_experiment(config, scenario);
  EXPECT_TRUE(result.report.stabilized);
}

}  // namespace
}  // namespace graybox::core
