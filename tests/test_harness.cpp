// Integration tests for SystemHarness: wiring, fault-free conformance of
// both algorithms, drain semantics, stats, and determinism.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "protocol_param.hpp"

namespace graybox::core {
namespace {

HarnessConfig base_config(const std::string& algo, bool wrapped) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = algo;
  config.wrapped = wrapped;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 40;
  config.client.eat_mean = 8;
  config.seed = 99;
  return config;
}

class FaultFreeConformance
    : public ::testing::TestWithParam<std::tuple<test::Protocol, bool>> {};

TEST_P(FaultFreeConformance, NoViolationsAndProgress) {
  const auto [protocol, wrapped] = GetParam();
  SystemHarness h(base_config(test::registry_name(protocol), wrapped));
  h.start();
  h.run_for(4000);
  h.drain(2000);

  // TME Spec holds throughout (Theorem 5: Lspec implementations implement
  // TME Spec from initial states).
  EXPECT_EQ(h.tme_monitors().me1->total_violations(), 0u);
  EXPECT_EQ(h.tme_monitors().me3->total_violations(), 0u);
  EXPECT_EQ(h.tme_monitors().invariant_i->total_violations(), 0u);
  EXPECT_FALSE(h.tme_monitors().me2->starvation_at_end());

  // Program-transition conformance.
  EXPECT_TRUE(h.structural_monitor().clean());
  EXPECT_TRUE(h.send_monitor().clean());
  EXPECT_TRUE(h.fifo_monitor().clean());

  // Real progress was made and everything settled.
  const RunStats stats = h.stats();
  EXPECT_GT(stats.cs_entries, 20u);
  EXPECT_EQ(stats.cs_entries, stats.me2_served);
  EXPECT_TRUE(h.quiescent());

  const StabilizationReport report = h.stabilization_report();
  EXPECT_TRUE(report.stabilized);
  EXPECT_FALSE(report.faults_injected);
  EXPECT_EQ(report.violations_total, 0u);
}

std::string conformance_name(
    const ::testing::TestParamInfo<std::tuple<test::Protocol, bool>>& info) {
  std::string name = test::registry_name(std::get<0>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  name += std::get<1>(info.param) ? "_wrapped" : "_bare";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndWrapping, FaultFreeConformance,
    ::testing::Combine(::testing::Values(test::Protocol::kRicartAgrawala,
                                         test::Protocol::kLamport,
                                         test::Protocol::kFragile),
                       ::testing::Bool()),
    conformance_name);

TEST(Harness, WrapperAccessReflectsConfig) {
  SystemHarness wrapped(base_config("ricart-agrawala", true));
  EXPECT_NE(wrapped.wrapper(0), nullptr);
  SystemHarness bare(base_config("ricart-agrawala", false));
  EXPECT_EQ(bare.wrapper(0), nullptr);
}

TEST(Harness, DeterministicAcrossIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    HarnessConfig config = base_config("ricart-agrawala", true);
    config.seed = seed;
    SystemHarness h(config);
    h.start();
    h.run_for(3000);
    h.drain(1000);
    return h.stats();
  };
  const RunStats a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a.cs_entries, b.cs_entries);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
  // A different seed should genuinely change the run.
  EXPECT_NE(a.messages_sent, c.messages_sent);
}

TEST(Harness, ProcessesMatchConfiguredAlgorithm) {
  SystemHarness h(base_config("lamport", false));
  for (ProcessId pid = 0; pid < 4; ++pid)
    EXPECT_EQ(h.process(pid).algorithm(), "lamport");
}

TEST(Harness, WrapperTrafficOnlyWhenWrapped) {
  SystemHarness bare(base_config("ricart-agrawala", false));
  bare.start();
  bare.run_for(3000);
  EXPECT_EQ(bare.stats().wrapper_messages, 0u);
}

TEST(Harness, MonitorsCanBeDisabled) {
  HarnessConfig config = base_config("ricart-agrawala", true);
  config.install_monitors = false;
  SystemHarness h(config);
  h.start();
  h.run_for(1000);
  EXPECT_EQ(h.monitors().size(), 0u);
  EXPECT_GT(h.stats().cs_entries, 0u);
}

TEST(Harness, SingleProcessSystemWorks) {
  HarnessConfig config = base_config("ricart-agrawala", true);
  config.n = 1;
  SystemHarness h(config);
  h.start();
  h.run_for(2000);
  h.drain(500);
  EXPECT_GT(h.stats().cs_entries, 0u);
  EXPECT_EQ(h.stats().messages_sent, 0u);
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

TEST(Harness, StatsMessageTypeBreakdownConsistent) {
  SystemHarness h(base_config("lamport", true));
  h.start();
  h.run_for(3000);
  const RunStats stats = h.stats();
  EXPECT_EQ(stats.messages_sent,
            stats.sent_request + stats.sent_reply + stats.sent_release);
  EXPECT_GT(stats.sent_release, 0u);  // Lamport uses releases
}

TEST(Harness, RicartAgrawalaSendsNoReleases) {
  SystemHarness h(base_config("ricart-agrawala", true));
  h.start();
  h.run_for(3000);
  EXPECT_EQ(h.stats().sent_release, 0u);
}

TEST(Harness, ReconvergenceCountsOnlySafetyViolations) {
  // A crash starves the survivor but violates no safety property. ME2's
  // end-of-run starvation report (stamped with the time the request
  // opened) is a liveness verdict and must not close the crash's
  // reconvergence window late.
  HarnessConfig config;
  config.n = 2;
  config.algorithm = "ricart-agrawala";
  config.wrapped = false;
  config.seed = 5;
  SystemHarness h(config);
  h.start();
  h.run_for(200);
  ASSERT_TRUE(h.crash(1));
  h.run_for(2000);
  h.drain(1000);

  const StabilizationReport report = h.stabilization_report();
  EXPECT_EQ(report.last_safety_violation, kNever);
  EXPECT_TRUE(report.starvation);
  const RunStats stats = h.stats();
  EXPECT_EQ(stats.reconverge_windows, 1u);
  EXPECT_EQ(stats.reconverge_ticks_total, 0u);
}

TEST(Experiment, FaultFreeScenarioViaRunner) {
  FaultScenario scenario;
  scenario.burst = 0;
  scenario.warmup = 500;
  scenario.observation = 1500;
  scenario.drain = 1500;
  const ExperimentResult result = run_fault_experiment(
      base_config("ricart-agrawala", true), scenario);
  EXPECT_TRUE(result.report.stabilized);
  EXPECT_FALSE(result.report.faults_injected);
  EXPECT_GT(result.stats.cs_entries, 0u);
}

TEST(Experiment, RepeatAggregatesTrials) {
  FaultScenario scenario;
  scenario.burst = 0;
  scenario.warmup = 200;
  scenario.observation = 800;
  scenario.drain = 1000;
  const RepeatedResult result = repeat_fault_experiment(
      base_config("ricart-agrawala", true), scenario, 3);
  EXPECT_EQ(result.trials, 3u);
  EXPECT_TRUE(result.all_stabilized());
  EXPECT_EQ(result.cs_entries.count(), 3u);
}

TEST(StabilizationReport, ToStringMentionsVerdict) {
  StabilizationReport report;
  report.stabilized = true;
  EXPECT_NE(report.to_string().find("stabilized"), std::string::npos);
  report.stabilized = false;
  report.starvation = true;
  const std::string s = report.to_string();
  EXPECT_NE(s.find("NOT STABILIZED"), std::string::npos);
  EXPECT_NE(s.find("STARVATION"), std::string::npos);
}

}  // namespace
}  // namespace graybox::core
