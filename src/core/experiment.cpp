#include "core/experiment.hpp"

#include <algorithm>

#include "core/engine.hpp"

namespace graybox::core {

ExperimentResult run_fault_experiment(const HarnessConfig& config,
                                      const FaultScenario& scenario) {
  SystemHarness harness(config);
  harness.start();
  harness.run_for(scenario.warmup);
  if (scenario.scripted_fault) {
    scenario.scripted_fault(harness);
  } else if (scenario.burst > 0) {
    harness.faults().burst(scenario.burst, scenario.mix);
  }
  harness.run_for(scenario.observation);
  harness.drain(scenario.drain);
  return ExperimentResult{harness.stabilization_report(), harness.stats()};
}

RepeatedResult::RepeatedResult(std::size_t sample_cap) {
  if (sample_cap == 0) return;
  for (const AccumulatorField& f : kAccumulatorFields)
    this->*f.member = Accumulator(sample_cap);
}

void RepeatedResult::add(const ExperimentResult& result) {
  ++trials;
  if (result.report.stabilized) {
    ++stabilized;
    if (result.report.faults_injected)
      latency.add(static_cast<double>(result.report.latency));
  }
  if (result.report.starvation) ++starved;
  total_messages.add(static_cast<double>(result.stats.messages_sent));
  wrapper_messages.add(static_cast<double>(result.stats.wrapper_messages));
  protocol_messages.add(static_cast<double>(result.stats.messages_sent -
                                            result.stats.wrapper_messages));
  violations.add(static_cast<double>(result.report.violations_total));
  safety_violations.add(static_cast<double>(
      result.stats.me1_violations + result.stats.me3_violations +
      result.stats.invariant_violations +
      result.stats.mutual_belief_violations));
  cs_entries.add(static_cast<double>(result.stats.cs_entries));
  max_wait.add(static_cast<double>(result.stats.me2_max_wait));
  events.add(static_cast<double>(result.stats.events_executed));
  faults.add(static_cast<double>(result.stats.faults_injected));
  // Clamped at 1: state corruption can fabricate CS entries that no client
  // requested, and those must not read as surplus availability.
  availability.add(
      result.stats.requests_issued > 0
          ? std::min(1.0, static_cast<double>(result.stats.me2_served) /
                              static_cast<double>(result.stats.requests_issued))
          : 1.0);
  reconverge.add(
      result.stats.reconverge_windows > 0
          ? static_cast<double>(result.stats.reconverge_ticks_total) /
                static_cast<double>(result.stats.reconverge_windows)
          : 0.0);
  observe_ns_total += static_cast<double>(result.stats.observe_ns);
  if (!result.stats.metrics.empty()) metrics.add(result.stats.metrics);
}

void RepeatedResult::merge(const RepeatedResult& other) {
  trials += other.trials;
  stabilized += other.stabilized;
  starved += other.starved;
  for (const AccumulatorField& f : kAccumulatorFields)
    (this->*f.member).merge(other.*f.member);
  observe_ns_total += other.observe_ns_total;
  metrics.merge(other.metrics);
}

RepeatedResult repeat_fault_experiment(HarnessConfig config,
                                       const FaultScenario& scenario,
                                       std::size_t trials, std::size_t jobs) {
  RunSpec spec;
  spec.name = "cell";
  spec.config = config;
  spec.scenario = scenario;
  spec.trials = trials;
  return ExperimentEngine(EngineOptions{.jobs = jobs}).run_cell(spec).result;
}

}  // namespace graybox::core
