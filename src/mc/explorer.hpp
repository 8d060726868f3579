// mc::Explorer — a deterministic stateless model checker over the existing
// simulation stack.
//
// The paper's guarantees are quantified over every schedule and every
// transient fault placement; the harness alone only samples them via a
// seeded RNG. The explorer narrows the gap with a budget-bounded search:
//
//   * Choice points. A sim::ChoiceHook turns every same-tick tie (>= 2
//     ready events) into an enumerable decision; with no hook the
//     scheduler's insertion-order tiebreak is decision "0", so the root
//     schedule is exactly the legacy sampled run.
//   * Fault placements. net::TargetedFault pins an injector fault (or a
//     crash/recover / partition/heal pair) to an executed-event position
//     on a fixed stride grid; the fault menu at each position is derived
//     from the live channel state of the run being extended.
//   * Search. Iterative-deepening-free DFS over ScheduleTrace prefixes:
//     each execution records the choice points it met and the fault menus
//     it passed; children extend the trace by one non-default choice or
//     one placed fault. Delay bounding caps non-default choices per
//     schedule; a sleep-set-lite reduction prunes alternatives that only
//     commute independent deliveries (disjoint channel endpoints, keyed on
//     the delivery tags net::Channel stamps).
//   * Verdicts. Stateless re-execution from scratch per schedule, so every
//     failing ScheduleTrace replays bit-identically; a greedy shrinker
//     minimizes it before Explorer::explain renders the counterexample
//     through obs::why() and the blast-radius rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "mc/trace.hpp"
#include "net/fault_injector.hpp"

namespace graybox::mc {

/// What counts as a bug.
enum class BugProperty {
  /// Any safety violation (ME1 / ME3 / Invariant I / Mutual Belief) or
  /// end-of-run starvation. Sound when the trace places no faults — the
  /// paper's Spec admits no fault-free violation — and for mutation
  /// smokes where the seeded defect makes any violation diagnostic.
  kAnySafetyViolation,
  /// Transient violations inside the fault window are expected (the
  /// paper's stabilization story); a bug is a violation after the last
  /// fault plus the settle window, or starvation after drain.
  kConvergence,
};

struct ExplorerConfig {
  /// Base system under test. The explorer overrides seed per trace and
  /// never mutates the caller's copy.
  core::HarnessConfig harness{};

  BugProperty property = BugProperty::kAnySafetyViolation;

  /// Per-execution bounds: stop stepping past this sim time / this many
  /// executed events, then settle (kConvergence only) and drain.
  SimTime horizon = 1500;
  std::uint64_t max_events = 30000;

  /// Max non-default choices per schedule (delay bounding).
  std::uint32_t delay_budget = 2;
  /// Max placed faults per trace (0 = schedule exploration only).
  std::uint32_t fault_budget = 0;
  /// Max executions for the DFS (shrinking is budgeted separately).
  std::uint64_t budget = 2000;

  /// Fault-placement grid: candidate positions are every `fault_stride`
  /// executed events in [0, fault_window).
  std::uint64_t fault_window = 600;
  std::uint64_t fault_stride = 60;
  net::FaultMix mix = net::FaultMix::channel_only();

  /// Also enumerate crash/recover and partition/heal pairs (the recovery /
  /// heal lands a fixed number of executed events after the fault).
  bool explore_lifecycle = false;

  /// kConvergence: sim time granted after the fault window to converge.
  SimTime settle = 500;
  /// Drain period before liveness verdicts (both properties).
  SimTime drain_period = 400;
};

/// Verdict of one execution. Deterministic: equal traces yield equal
/// outcomes, including the digest (the CI byte-identity smoke pins this).
struct Outcome {
  bool bug = false;
  std::string kind;    ///< "me1" / "me3" / "invariant-i" / "mutual-belief"
                       ///< / "starvation" / "post-settle-violation"; ""
                       ///< when clean.
  std::string detail;  ///< one-line violation/starvation summary
  std::uint64_t digest = 0;  ///< FNV-1a over the deterministic run facts
  std::uint64_t executed_events = 0;
  SimTime end_time = 0;
};

struct ExplorerStats {
  std::uint64_t executions = 0;
  std::uint64_t choice_points = 0;
  std::uint64_t alternatives = 0;     ///< non-default branches considered
  std::uint64_t pruned_sleep = 0;     ///< dropped by the commutation rule
  std::uint64_t pruned_delay = 0;     ///< dropped by the delay bound
  std::uint64_t faults_placed = 0;    ///< fault-extension children pushed
  std::uint64_t shrink_executions = 0;
};

struct ExplorerResult {
  bool found = false;
  ScheduleTrace counterexample;  ///< shrunk; empty when !found
  ScheduleTrace original;        ///< the first failing trace, unshrunk
  Outcome outcome;               ///< outcome of the shrunk counterexample
  ExplorerStats stats;
};

class Explorer {
 public:
  explicit Explorer(ExplorerConfig config);

  /// DFS over schedules and fault placements until a bug or the budget.
  ExplorerResult run();

  /// Execute one trace; deterministic, no recording.
  Outcome execute(const ScheduleTrace& trace);

  /// Greedily minimize a failing trace (drop faults, zero choices,
  /// truncate) while it keeps failing.
  ScheduleTrace shrink(ScheduleTrace trace);

  /// Re-execute a failing trace with the event bus and provenance enabled
  /// and render the counterexample: the trace text, the outcome, the
  /// obs::why() causal chain of the first violation, and the blast-radius
  /// rows of every placed fault.
  std::string explain(const ScheduleTrace& trace);

  const ExplorerStats& stats() const { return stats_; }

 private:
  struct ChoicePoint {
    std::vector<std::uint64_t> tags;  ///< live same-tick events, in order
  };
  struct Recording {
    std::vector<ChoicePoint> points;
    /// (grid position, menu of concrete faults applicable there).
    std::vector<std::pair<std::uint64_t, std::vector<net::TargetedFault>>>
        fault_menus;
  };

  /// Construct-and-run one trace against `cfg` (callers enrich cfg for
  /// observability); `h` must be freshly constructed from it.
  Outcome drive(core::SystemHarness& h, const ScheduleTrace& trace,
                Recording* rec);
  void record_fault_menu(core::SystemHarness& h, std::uint64_t ec,
                         const ScheduleTrace& trace, Recording& rec);
  void push_choice_children(const ScheduleTrace& trace, const Recording& rec,
                            std::vector<ScheduleTrace>& stack);

  ExplorerConfig config_;
  ExplorerStats stats_;
  /// Scratch the ScriptedHook appends tag snapshots into while recording.
  std::vector<std::vector<std::uint64_t>> record_scratch_;
};

}  // namespace graybox::mc
