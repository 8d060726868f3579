// Lspec, clause by clause, as runtime monitors (paper Section 3.2).
//
// The TME Spec monitors (tme_monitors.hpp) judge the *derived* property the
// end user cares about; the monitors here judge the clauses of Lspec
// itself, each a hand-written per-process-local spec::Monitor:
//
//   Flow Spec       - per process, the state flows t -> h -> e -> t: as a
//                     global-state property, "h.j unless (e.j \/ t.j)" and
//                     its rotations, checked as legal snapshot transitions.
//                     (Fault jumps violate it transiently; program steps
//                     never do.)
//   CS Spec         - e.j |-> ~e.j: eating is transient (per process).
//   Request Spec    - (h.j => REQj = REQ'j): the request timestamp is
//                     frozen for the lifetime of a request.
//   CS Release Spec - t.j => REQj = ts.j: while thinking, REQ tracks the
//                     clock of the most recent event.
//   CS Entry Spec   - h.j /\ (forall k: REQj lt j.REQk) |-> e.j: an
//                     enabled entry is eventually taken.
//
// (Reply Spec and Timestamp/Communication Spec are message-level and live
// in program_monitors.hpp / the FIFO monitor.)
//
// Like the TME monitors, these are expected to be violated transiently by
// faults and clean afterwards: they witness, clause by clause, WHERE a
// fault hit and when Lspec conformance resumed — which is the graybox
// method's own diagnostic granularity.
#pragma once

#include "lspec/snapshot.hpp"
#include "lspec/tme_monitors.hpp"

namespace graybox::lspec {

/// Handles to the installed per-clause monitors (one entry per clause; the
/// per-process instances are folded into each monitor).
struct LspecClauseMonitors {
  spec::Monitor<GlobalSnapshot>* flow = nullptr;
  spec::Monitor<GlobalSnapshot>* cs_transient = nullptr;
  spec::Monitor<GlobalSnapshot>* request_frozen = nullptr;
  spec::Monitor<GlobalSnapshot>* release_tracks_clock = nullptr;
  spec::Monitor<GlobalSnapshot>* entry_taken = nullptr;

  /// Total violations across all clauses.
  std::uint64_t total_violations() const;
  /// Latest violation time across all clauses; kNever if clean.
  SimTime last_violation() const;
};

/// Install the per-clause battery into `set` for an n-process system.
LspecClauseMonitors install_lspec_clause_monitors(TmeMonitorSet& set,
                                                  std::size_t n);

}  // namespace graybox::lspec
