// Whole-run equivalence of the observation substrate and its reference.
//
// HarnessConfig::reference_substrate stamps every message with a dense
// vector clock and steps every monitor with spec::kDirtyAll, its full
// check. Neither may change what a run observes: the same seed with the
// switch off and on must yield identical CS schedules, per-monitor verdicts
// (totals, first/last times, retained records), stats and stabilization
// reports. Monitors never feed back into the simulation, so both runs
// execute the same event sequence; the CS schedule comparison is the
// cross-check of that premise.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_injector.hpp"

namespace graybox::test {

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
  core::RunStats stats;
  core::StabilizationReport report;
};

/// One run's phases: warm up, inject a burst, observe, drain.
struct RunShape {
  net::FaultMix mix;
  std::size_t burst = 0;
  SimTime warmup = 0;
  SimTime observe = 0;
  SimTime drain = 0;
};

/// The wrapped system both equivalence suites run: a short resend period
/// and, from N=32 on, think_mean = 8N so the request rate per tick stays
/// roughly constant in N.
inline core::HarnessConfig equivalence_config(const std::string& algo,
                                              std::size_t n,
                                              std::uint64_t seed) {
  core::HarnessConfig config;
  config.n = n;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = n >= 32 ? 8 * static_cast<SimTime>(n) : 40;
  config.client.eat_mean = 8;
  config.seed = seed;
  return config;
}

/// Run `h` through `shape` and record everything observable. Whatever was
/// attached to `h` before the call sees the whole run.
inline ObservedRun observe_run(core::SystemHarness& h, const RunShape& shape) {
  const std::size_t n = h.config().n;
  ObservedRun out;
  std::vector<bool> was_eating(n, false);
  h.scheduler().add_observer([&](SimTime t) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool eating =
          h.process(static_cast<ProcessId>(j)).state() == me::TmeState::kEating;
      if (eating && !was_eating[j]) out.cs_schedule.emplace_back(t, j);
      was_eating[j] = eating;
    }
  });

  h.start();
  h.run_for(shape.warmup);
  if (shape.burst > 0) h.faults().burst(shape.burst, shape.mix);
  h.run_for(shape.observe);
  h.drain(shape.drain);

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

inline ObservedRun observe_run(const core::HarnessConfig& config,
                               const RunShape& shape) {
  core::SystemHarness h(config);
  return observe_run(h, shape);
}

inline void expect_equivalent(const ObservedRun& a, const ObservedRun& b) {
  // Same dynamics: the event sequence did not depend on the substrate.
  EXPECT_EQ(a.cs_schedule, b.cs_schedule);

  // Same verdicts, monitor by monitor.
  ASSERT_EQ(a.monitor_names, b.monitor_names);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.first_times, b.first_times);
  EXPECT_EQ(a.last_times, b.last_times);
  EXPECT_EQ(a.retained, b.retained);

  // Same aggregate stats (observe_ns is wall-clock and excluded).
  EXPECT_EQ(a.stats.duration, b.stats.duration);
  EXPECT_EQ(a.stats.cs_entries, b.stats.cs_entries);
  EXPECT_EQ(a.stats.requests_issued, b.stats.requests_issued);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.wrapper_messages, b.stats.wrapper_messages);
  EXPECT_EQ(a.stats.me1_violations, b.stats.me1_violations);
  EXPECT_EQ(a.stats.me3_violations, b.stats.me3_violations);
  EXPECT_EQ(a.stats.invariant_violations, b.stats.invariant_violations);
  EXPECT_EQ(a.stats.me2_served, b.stats.me2_served);
  EXPECT_EQ(a.stats.me2_max_wait, b.stats.me2_max_wait);
  EXPECT_EQ(a.stats.lspec_clause_violations, b.stats.lspec_clause_violations);
  EXPECT_EQ(a.stats.faults_injected, b.stats.faults_injected);
  EXPECT_EQ(a.stats.events_executed, b.stats.events_executed);

  // Same stabilization verdict.
  EXPECT_EQ(a.report.stabilized, b.report.stabilized);
  EXPECT_EQ(a.report.starvation, b.report.starvation);
  EXPECT_EQ(a.report.last_fault, b.report.last_fault);
  EXPECT_EQ(a.report.last_safety_violation, b.report.last_safety_violation);
  EXPECT_EQ(a.report.latency, b.report.latency);
  EXPECT_EQ(a.report.violations_total, b.report.violations_total);
}

}  // namespace graybox::test
