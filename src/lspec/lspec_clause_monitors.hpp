// Lspec, clause by clause, as runtime monitors (paper Section 3.2).
//
// The TME Spec monitors (tme_monitors.hpp) judge the *derived* property the
// end user cares about; the monitors here judge the clauses of Lspec
// itself. Each clause constrains one process, so each is one declaration
// over spec/unity.hpp's row-local operators:
//
//   Flow Spec       - per process, the state flows t -> h -> e -> t:
//                     h.j unless e.j, and e.j unless t.j.
//   CS Spec         - e.j |-> ~e.j: eating is transient.
//   Request Spec    - h.j => REQj = REQ'j: the request timestamp is frozen
//                     for the lifetime of a request.
//   CS Release Spec - t.j => REQj = ts.j: while thinking, REQ tracks the
//                     clock of the most recent event.
//   CS Entry Spec   - h.j /\ (forall k: REQj lt j.REQk) |-> e.j: an
//                     enabled entry is eventually taken (or the knowledge
//                     it rests on is revised).
//
// (Reply Spec and Timestamp/Communication Spec are message-level and live
// in program_monitors.hpp / the FIFO monitor.)
//
// Like the TME monitors, these are expected to be violated transiently by
// faults and clean afterwards: they witness, clause by clause, WHERE a
// fault hit and when Lspec conformance resumed — which is the graybox
// method's own diagnostic granularity.
#pragma once

#include "lspec/tme_monitors.hpp"

namespace graybox::lspec {

/// Append the five clause monitors to `set`, in the order above, named
/// "Lspec/FlowSpec", "Lspec/CsSpec", "Lspec/RequestSpec",
/// "Lspec/CsReleaseSpec" and "Lspec/CsEntrySpec".
void install_lspec_clause_monitors(TmeMonitorSet& set);

}  // namespace graybox::lspec
