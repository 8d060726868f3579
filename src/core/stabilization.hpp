// Stabilization verdicts over completed runs.
//
// "C is stabilizing to A iff every computation of C has a suffix that is a
// suffix of some computation of A..." (Section 2). Operationally, over one
// observed (finite, drained) run: stabilization holds when all TME Spec
// violations are confined to a prefix, and nobody is left starving at the
// end. The *stabilization latency* is the gap between the last injected
// fault and the last *safety* violation (ME1, ME3, Invariant I, Mutual
// Belief). Engine cells, the examples and the model checker all read a
// run's latency and safety count from this report, as
// SystemHarness::stabilization_report() builds it.
#pragma once

#include <string>

#include "common/types.hpp"

namespace graybox::core {

struct StabilizationReport {
  /// Any faults injected during the run?
  bool faults_injected = false;
  /// Time of the last injected fault (kNever if none).
  SimTime last_fault = kNever;

  /// Last violation of the *safety* monitors (ME1, ME3, Invariant I and,
  /// when installed, Mutual Belief); kNever when the run was violation-free.
  SimTime last_safety_violation = kNever;

  /// A drained run ended with a process still hungry: deadlock/starvation,
  /// the liveness failure stabilization must rule out.
  bool starvation = false;

  /// The run ended with violations confined to a prefix and no starvation.
  bool stabilized = false;

  /// last_safety_violation - last_fault when both exist and the violation
  /// came after the fault; 0 for a clean-after-fault run. Meaningless when
  /// !stabilized.
  SimTime latency = 0;

  /// Every violation the safety monitors reported over the whole run
  /// (the fault window is allowed to be messy).
  std::uint64_t violations_total = 0;

  std::string to_string() const;
};

}  // namespace graybox::core
