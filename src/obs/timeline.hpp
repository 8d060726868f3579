// Stabilization timeline: the run's convergence story as ordered phases.
//
// The paper defines stabilization as confinement of Spec violations to a
// prefix of the run (Section 2); the quantity of interest is the divergent
// window between the last injected fault and the last violation. A
// StabilizationTimeline lays that window out as the ordered sequence
//
//   fault burst -> first violation -> per-clause violation decay
//               -> last violation -> quiescence
//
// with exact counts and first/last sim-times per fault kind and per monitor
// clause. It is a pure value folded by fold_timeline() from per-fault-kind
// and per-monitor count/first/last rows. SystemHarness::timeline() reads
// the rows from the fault injector and the monitors; a hand-wired system
// folds its own injector's rows the same way.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/event.hpp"

namespace graybox::obs {

/// One named event class (a fault kind or a monitor clause) with its exact
/// count / first / last aggregate over the run.
struct TimelineEntry {
  std::string name;
  std::uint64_t count = 0;
  SimTime first = kNever;
  SimTime last = kNever;
};

struct StabilizationTimeline {
  SimTime run_end = 0;  ///< sim-time at which the timeline was taken

  // Fault burst.
  std::uint64_t faults_injected = 0;
  SimTime first_fault = kNever;
  SimTime last_fault = kNever;
  std::vector<TimelineEntry> faults;  ///< per fault kind, injected only

  // Violation decay.
  std::uint64_t violations_total = 0;
  SimTime first_violation = kNever;
  SimTime last_violation = kNever;
  std::vector<TimelineEntry> clauses;  ///< per monitor, all listed

  // Quiescence: time of the last observable activity (send, delivery,
  // fault, or violation) and whether the system had settled by run_end.
  SimTime last_activity = kNever;
  bool quiescent = false;

  /// Paper Section 5's stabilization latency: ticks from the last fault to
  /// the last violation. 0 if violations never outlived the burst (or none
  /// of either happened).
  SimTime divergent_window() const {
    if (last_violation == kNever || last_fault == kNever) return 0;
    return last_violation > last_fault ? last_violation - last_fault : 0;
  }

  /// Multi-line human-readable rendering, phase per line (what the
  /// examples print after a fault burst).
  std::string to_string() const;
};

/// The fold. `faults[k]` and `clauses[m]` are the count/first/last rows of
/// FaultKind k and monitor m, labelled by to_string(FaultKind) and
/// `monitor_names[m]`. Fault rows with no fault are dropped; the
/// burst and violation totals are the rows' sums and extremes; the last
/// activity is the latest of the last fault, the last violation and the
/// `traffic` times (the last send, delivery and the like; kNever = none).
/// `quiescent` is left to the caller.
StabilizationTimeline fold_timeline(
    SimTime run_end, std::span<const KindStats> faults,
    const std::vector<std::string>& monitor_names,
    std::span<const KindStats> clauses,
    std::initializer_list<SimTime> traffic);

}  // namespace graybox::obs
