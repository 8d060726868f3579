#include "lspec/lspec_clause_monitors.hpp"

#include "spec/unity.hpp"

namespace graybox::lspec {
namespace {

std::string process(std::size_t j) { return "process " + std::to_string(j); }

}  // namespace

void install_lspec_clause_monitors(TmeMonitorSet& set) {
  using Snap = GlobalSnapshot;

  // Flow Spec, t -> h -> e -> t: h.j unless e.j, and e.j unless t.j. There
  // is no t.j unless h.j, so t -> e is accepted: snapshots are per *event*,
  // and a request whose entry guard already holds (single-process system,
  // or after the last needed reply) performs t -> h -> e within one event.
  spec::unless(
      set, "Lspec/FlowSpec",
      [](const Snap& prev, const Snap& cur, std::size_t j) {
        const ProcessSnapshot& was = prev.procs[j];
        const ProcessSnapshot& is = cur.procs[j];
        return (!was.hungry() || is.hungry() || is.eating()) &&
               (!was.eating() || is.eating() || is.thinking());
      },
      [](const Snap& prev, const Snap& cur, std::size_t j) {
        return process(j) + " jumped " +
               std::string(me::to_string(prev.procs[j].state)) + " -> " +
               std::string(me::to_string(cur.procs[j].state));
      });

  // CS Spec: e.j |-> ~e.j.
  spec::leads_to(
      set, "Lspec/CsSpec",
      [](const Snap& s, std::size_t j) { return s.procs[j].eating(); },
      [](const Snap& s, std::size_t j) { return !s.procs[j].eating(); },
      [](const Snap&, std::size_t j) {
        return process(j) +
               " still eating at end of run (CS Spec: eating must be "
               "transient)";
      });

  // Request Spec: h.j => REQj = REQ'j, a step of a hungry process keeps REQ.
  spec::unless(
      set, "Lspec/RequestSpec",
      [](const Snap& prev, const Snap& cur, std::size_t j) {
        return !(prev.procs[j].hungry() && cur.procs[j].hungry()) ||
               prev.procs[j].req == cur.procs[j].req;
      },
      [](const Snap& prev, const Snap& cur, std::size_t j) {
        return process(j) + " REQ moved " + prev.procs[j].req.to_string() +
               " -> " + cur.procs[j].req.to_string() + " while hungry";
      });

  // CS Release Spec: invariant(~t.j \/ REQj = ts.j).
  spec::invariant(
      set, "Lspec/CsReleaseSpec",
      [](const Snap& s, std::size_t j) {
        return !s.procs[j].thinking() || s.procs[j].req == s.procs[j].clock_now;
      },
      [](const Snap& s, std::size_t j) {
        return process(j) + " thinking with REQ " +
               s.procs[j].req.to_string() + " != ts " +
               s.procs[j].clock_now.to_string();
      });

  // CS Entry Spec: enabled |-> ~enabled, where enabled is the entry guard
  // h.j /\ (forall k: REQj lt j.REQk): the entry is taken, or the knowledge
  // it rests on is revised. knows_all_earlier is O(1) on SnapshotSource
  // buffers (cached per-row knows-true counts).
  const auto enabled = [](const Snap& s, std::size_t j) {
    return s.procs[j].hungry() && s.knows_all_earlier(j);
  };
  spec::leads_to(
      set, "Lspec/CsEntrySpec", enabled,
      [enabled](const Snap& s, std::size_t j) { return !enabled(s, j); },
      [](const Snap&, std::size_t j) {
        return process(j) +
               " had CS entry enabled but never entered (CS Entry Spec)";
      });
}

}  // namespace graybox::lspec
