// Golden equivalence of the two observation pipelines.
//
// The zero-copy delta path (SnapshotSource::capture + Monitor::step_delta)
// must be observationally indistinguishable from the legacy allocate-and-
// copy full-capture path it replaced: monitors judge the SAME sequence of
// global states, so every verdict — per-monitor totals, first/last
// violation times, even the retained violation records — has to match
// byte-for-byte. These tests run each configuration twice, once per
// pipeline, across the full fault matrix, and diff everything observable.
//
// Monitors never feed back into the simulation, so both runs of a seed
// execute the identical event sequence; the CS schedule comparison at the
// bottom is the cross-check that this premise holds.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_injector.hpp"
#include "protocol_param.hpp"

namespace graybox::core {
namespace {

struct ObservedRun {
  // (time, process) for every thinking/hungry -> eating transition.
  std::vector<std::pair<SimTime, std::size_t>> cs_schedule;
  // Per monitor, in installation order.
  std::vector<std::string> monitor_names;
  std::vector<std::uint64_t> totals;
  std::vector<SimTime> first_times;
  std::vector<SimTime> last_times;
  // Retained records flattened as strings (time + clause + detail).
  std::vector<std::string> retained;
  RunStats stats;
  StabilizationReport report;
};

ObservedRun run_once(const std::string& algo, net::FaultMix mix,
                     std::size_t burst, std::uint64_t seed,
                     bool reference_pipeline) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 40;
  config.client.eat_mean = 8;
  config.seed = seed;
  config.reference_full_capture = reference_pipeline;

  SystemHarness h(config);

  ObservedRun out;
  std::vector<bool> was_eating(config.n, false);
  h.scheduler().add_observer([&](SimTime t) {
    for (std::size_t j = 0; j < config.n; ++j) {
      const bool eating =
          h.process(static_cast<ProcessId>(j)).state() == me::TmeState::kEating;
      if (eating && !was_eating[j]) out.cs_schedule.emplace_back(t, j);
      was_eating[j] = eating;
    }
  });

  h.start();
  h.run_for(400);
  if (burst > 0) h.faults().burst(burst, mix);
  h.run_for(3000);
  h.drain(2000);

  for (const auto& m : h.monitors().monitors()) {
    out.monitor_names.push_back(m->name());
    out.totals.push_back(m->total_violations());
    out.first_times.push_back(m->first_violation());
    out.last_times.push_back(m->last_violation());
    for (const auto& v : m->violations()) out.retained.push_back(v.to_string());
  }
  out.stats = h.stats();
  out.report = h.stabilization_report();
  return out;
}

void expect_equivalent(const ObservedRun& delta, const ObservedRun& full) {
  // Same dynamics: the event sequence did not depend on the pipeline.
  EXPECT_EQ(delta.cs_schedule, full.cs_schedule);

  // Same verdicts, monitor by monitor.
  ASSERT_EQ(delta.monitor_names, full.monitor_names);
  EXPECT_EQ(delta.totals, full.totals);
  EXPECT_EQ(delta.first_times, full.first_times);
  EXPECT_EQ(delta.last_times, full.last_times);
  EXPECT_EQ(delta.retained, full.retained);

  // Same aggregate stats (observe_ns is wall-clock and excluded).
  EXPECT_EQ(delta.stats.duration, full.stats.duration);
  EXPECT_EQ(delta.stats.cs_entries, full.stats.cs_entries);
  EXPECT_EQ(delta.stats.requests_issued, full.stats.requests_issued);
  EXPECT_EQ(delta.stats.messages_sent, full.stats.messages_sent);
  EXPECT_EQ(delta.stats.wrapper_messages, full.stats.wrapper_messages);
  EXPECT_EQ(delta.stats.me1_violations, full.stats.me1_violations);
  EXPECT_EQ(delta.stats.me3_violations, full.stats.me3_violations);
  EXPECT_EQ(delta.stats.invariant_violations, full.stats.invariant_violations);
  EXPECT_EQ(delta.stats.me2_served, full.stats.me2_served);
  EXPECT_EQ(delta.stats.me2_max_wait, full.stats.me2_max_wait);
  EXPECT_EQ(delta.stats.lspec_clause_violations,
            full.stats.lspec_clause_violations);
  EXPECT_EQ(delta.stats.faults_injected, full.stats.faults_injected);
  EXPECT_EQ(delta.stats.events_executed, full.stats.events_executed);

  // Same stabilization verdict.
  EXPECT_EQ(delta.report.stabilized, full.report.stabilized);
  EXPECT_EQ(delta.report.starvation, full.report.starvation);
  EXPECT_EQ(delta.report.last_fault, full.report.last_fault);
  EXPECT_EQ(delta.report.last_safety_violation,
            full.report.last_safety_violation);
  EXPECT_EQ(delta.report.latency, full.report.latency);
  EXPECT_EQ(delta.report.violations_total, full.report.violations_total);
}

// --- Full fault matrix: each kind alone, per algorithm --------------------

class DeltaVsFullByFaultKind
    : public ::testing::TestWithParam<
          std::tuple<test::Protocol, net::FaultKind, std::uint64_t>> {};

TEST_P(DeltaVsFullByFaultKind, IdenticalVerdicts) {
  const auto [protocol, kind, seed] = GetParam();
  const std::string algo = test::registry_name(protocol);
  const auto mix = net::FaultMix::only(kind);
  const auto delta = run_once(algo, mix, 6, seed, false);
  const auto full = run_once(algo, mix, 6, seed, true);
  expect_equivalent(delta, full);
}

std::string matrix_name(
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
    Matrix, DeltaVsFullByFaultKind,
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
        ::testing::Values(7u)),
    matrix_name);

// --- Mixed bursts, fault-free runs, and the fragile implementation --------

TEST(DeltaVsFull, MixedBurstRicartAgrawala) {
  const auto delta =
      run_once("ricart-agrawala", net::FaultMix::all(), 15, 3, false);
  const auto full =
      run_once("ricart-agrawala", net::FaultMix::all(), 15, 3, true);
  expect_equivalent(delta, full);
}

TEST(DeltaVsFull, MixedBurstLamport) {
  const auto delta =
      run_once("lamport", net::FaultMix::all(), 15, 4, false);
  const auto full =
      run_once("lamport", net::FaultMix::all(), 15, 4, true);
  expect_equivalent(delta, full);
}

TEST(DeltaVsFull, FaultFreeRunsAreCleanOnBothPaths) {
  const auto delta =
      run_once("ricart-agrawala", net::FaultMix::all(), 0, 5, false);
  const auto full =
      run_once("ricart-agrawala", net::FaultMix::all(), 0, 5, true);
  expect_equivalent(delta, full);
  for (const auto total : delta.totals) EXPECT_EQ(total, 0u);
}

// Fragile drops messages under contention by design: violations without any
// injected fault, exercising the monitors' steady-state reporting paths.
TEST(DeltaVsFull, FragileImplementationMatchesEvenWhenUnstable) {
  const auto delta =
      run_once("fragile-ra", net::FaultMix::all(), 10, 6, false);
  const auto full =
      run_once("fragile-ra", net::FaultMix::all(), 10, 6, true);
  expect_equivalent(delta, full);
}

}  // namespace
}  // namespace graybox::core
