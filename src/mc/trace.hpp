// A replayable schedule for the graybox model checker (mc::Explorer).
//
// A ScheduleTrace pins everything the sampled harness leaves to chance:
// the master seed, the resolution of every same-tick delivery tie (via the
// sim::ChoiceHook installed by the explorer), and the exact fault
// placements (net::TargetedFault at fixed executed-event positions).
// Executing the same trace through Explorer::execute reconstructs the
// SystemHarness from scratch and replays bit-identically — counterexamples
// are files, not luck.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/fault_injector.hpp"

namespace graybox::mc {

/// One fault application pinned to an execution position: applied
/// immediately before the `at_event`-th executed simulator event.
struct FaultAt {
  std::uint64_t at_event = 0;
  net::TargetedFault fault{};
};

/// What a trace file says about itself ahead of its schedule: the system
/// and run it was saved from, and what it was saved for. Kept out of
/// ScheduleTrace, which the search copies once per child.
struct TraceHeader {
  /// "--name=value" command-line flags: the system (core::harness_flags)
  /// and the explorer flags a replay needs.
  std::vector<std::string> flags;
  /// core::config_digest of that system; it pins the fields no flag spells.
  std::string config;
  /// The Outcome::kind the trace was saved for.
  std::string bug;
};

struct ScheduleTrace {
  std::uint64_t seed = 1;

  /// Consumed one per choice point (a tick with >= 2 ready events), in
  /// order; points beyond the vector take index 0, the legacy insertion
  /// order. Entries are clamped to the live count at replay time.
  std::vector<std::uint32_t> choices;

  /// Sorted by at_event (ties applied in listed order).
  std::vector<FaultAt> faults;

  /// Shrinker-visible size: placed faults plus non-default choices. The
  /// mutation smoke's "<= 10 steps" acceptance bound counts exactly this.
  std::size_t steps() const {
    std::size_t s = faults.size();
    for (std::uint32_t c : choices)
      if (c != 0) ++s;
    return s;
  }

  /// Drop trailing zero choices; they replay identically to absence.
  void normalize() {
    while (!choices.empty() && choices.back() == 0) choices.pop_back();
  }

  /// Line-oriented text form (round-trips through from_text):
  ///   graybox-mc-trace v2
  ///   --<name>=<value>             (one line per header flag)
  ///   config <digest>              (omitted when empty)
  ///   bug <kind>                   (omitted when empty)
  ///   seed <n>
  ///   choices <c0> <c1> ...        (omitted when empty)
  ///   fault <at_event> <code> <a> <b> <index> <index2> <mask>
  /// where <code> is the numeric FaultKind. from_text fills `header` when
  /// given and returns nullopt for anything else: another version, a code
  /// past the FaultKind vocabulary included.
  std::string to_text(const TraceHeader& header = {}) const;
  static std::optional<ScheduleTrace> from_text(const std::string& text,
                                                TraceHeader* header = nullptr);
};

}  // namespace graybox::mc
