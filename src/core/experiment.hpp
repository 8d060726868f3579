// Reusable experiment shapes. Every bench binary and most integration
// tests run one of two patterns:
//
//   * fault-recovery: warm up, inject a fault burst, observe, drain, and
//     judge stabilization;
//   * fault-free: run and drain with no faults (interference-freedom and
//     throughput measurements) — a FaultScenario with burst == 0.
//
// run_fault_experiment packages one seeded trial; RepeatedResult aggregates
// trials into latency/overhead statistics. Trial fan-out across cores lives
// in core/engine.hpp (ExperimentEngine); repeat_fault_experiment is the
// one-cell convenience wrapper over it.
#pragma once

#include <functional>

#include "common/stats.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_injector.hpp"

namespace graybox::core {

struct FaultScenario {
  /// Fault-free run-in so the system is mid-flight when faults hit.
  SimTime warmup = 500;
  /// Number of random faults injected at the end of warmup.
  std::size_t burst = 10;
  net::FaultMix mix = net::FaultMix::all();
  /// Observation window after the burst (set it >> expected recovery).
  SimTime observation = 4000;
  /// Drain period before judging liveness.
  SimTime drain = 3000;
  /// Optional custom fault action run at the end of warmup *instead of*
  /// the random burst (used by scripted scenarios like Section 4's
  /// deadlock). Receives the harness. Runs concurrently across trials in
  /// engine runs, so it must not mutate state shared between calls.
  std::function<void(SystemHarness&)> scripted_fault;
};

struct ExperimentResult {
  StabilizationReport report;
  RunStats stats;
};

/// Run one seeded fault-recovery experiment to completion.
ExperimentResult run_fault_experiment(const HarnessConfig& config,
                                      const FaultScenario& scenario);

/// Aggregate over trials: add() folds one trial. The engine add()s the
/// per-trial results in seed order, which makes the aggregate independent
/// of how trials were sharded across workers.
struct RepeatedResult {
  std::size_t trials = 0;
  std::size_t stabilized = 0;    ///< trials not starving after the drain
  Accumulator latency;           ///< over stabilized trials with faults
  Accumulator total_messages;
  Accumulator wrapper_messages;
  Accumulator protocol_messages; ///< total minus wrapper traffic
  Accumulator safety_violations; ///< StabilizationReport::violations_total
  Accumulator cs_entries;
  Accumulator max_wait;          ///< ME2 worst-case waiting time per trial
  Accumulator events;            ///< simulator events executed per trial
  Accumulator faults;            ///< faults per trial (burst + sustained +
                                 ///< lifecycle arrivals)
  /// Fraction of issued CS requests that were served, per trial (1.0 when
  /// none were issued). Under sustained fault load this is the paper-style
  /// availability number: how much service survives a continuous adversary.
  Accumulator availability;
  /// Per-trial mean time-to-reconverge: over the trial's fault->fault
  /// windows, the average gap from a fault arrival to the last safety
  /// violation inside its window (0 for clean windows / fault-free trials).
  Accumulator reconverge;
  /// Summed observation-hot-path nanoseconds across trials (volatile:
  /// wall-clock derived, stripped from determinism comparisons).
  double observe_ns_total = 0.0;
  /// Fold of each trial's RunStats::metrics (empty when trials ran without
  /// collect_metrics). Deterministic: every metric is sim-domain valued.
  obs::MetricsAggregate metrics;

  /// Fold one trial's outcome.
  void add(const ExperimentResult& result);

  bool all_stabilized() const { return stabilized == trials; }
};

/// Every RepeatedResult accumulator with its BENCH_*.json key, in artifact
/// order. The JSON cell iterates this table.
struct AccumulatorField {
  const char* name;
  Accumulator RepeatedResult::*member;
};
inline constexpr AccumulatorField kAccumulatorFields[] = {
    {"latency", &RepeatedResult::latency},
    {"total_messages", &RepeatedResult::total_messages},
    {"wrapper_messages", &RepeatedResult::wrapper_messages},
    {"protocol_messages", &RepeatedResult::protocol_messages},
    {"safety_violations", &RepeatedResult::safety_violations},
    {"cs_entries", &RepeatedResult::cs_entries},
    {"max_wait", &RepeatedResult::max_wait},
    {"events", &RepeatedResult::events},
    {"faults", &RepeatedResult::faults},
    {"availability", &RepeatedResult::availability},
    {"reconverge", &RepeatedResult::reconverge},
};

/// Run `trials` experiments over consecutive seeds and aggregate. `jobs`
/// selects worker threads (0 = all cores, 1 = serial); the aggregate is
/// bit-identical for every jobs value.
RepeatedResult repeat_fault_experiment(HarnessConfig config,
                                       const FaultScenario& scenario,
                                       std::size_t trials,
                                       std::size_t jobs = 1);

}  // namespace graybox::core
