#include "lspec/lspec_clause_monitors.hpp"

namespace graybox::lspec {
namespace {

using me::TmeState;

bool legal_flow(TmeState from, TmeState to) {
  if (from == to) return true;
  using S = TmeState;
  // t -> e is also accepted: snapshots are per *event*, and a request whose
  // entry guard already holds (single-process system, or after the last
  // needed reply) performs t -> h -> e within one event.
  return (from == S::kThinking && to == S::kHungry) ||
         (from == S::kHungry && to == S::kEating) ||
         (from == S::kEating && to == S::kThinking) ||
         (from == S::kThinking && to == S::kEating);
}

// Every clause below is per-process-local: what it reports about process j
// depends only on row j of the snapshot pair. That is what makes visiting
// only the dirty rows sound — a row outside the hint is bit-identical to its
// predecessor, so skipping it can neither miss a transition nor change a
// per-row obligation (eating_since_ etc. are functions of the row history,
// which didn't advance).

/// Flow Spec over snapshots: each process moves only along t -> h -> e -> t
/// (or stays put) between consecutive global states.
class FlowSpecSnapshotMonitor : public TmeMonitor {
 public:
  FlowSpecSnapshotMonitor() : TmeMonitor("Lspec/FlowSpec") {}

  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override {
    spec::for_each_dirty_row(dirty, cur.procs.size(),
                             [&](std::size_t j) { check(t, prev, cur, j); });
  }

 private:
  void check(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
             std::size_t j) {
    if (!legal_flow(prev.procs[j].state, cur.procs[j].state)) {
      report(t, "process " + std::to_string(j) + " jumped " +
                    std::string(me::to_string(prev.procs[j].state)) + " -> " +
                    std::string(me::to_string(cur.procs[j].state)));
    }
  }
};

/// CS Spec: e.j |-> ~e.j — per-process obligations, reported at their open
/// time if still outstanding when observation ends.
class CsTransientMonitor : public TmeMonitor {
 public:
  explicit CsTransientMonitor(std::size_t n)
      : TmeMonitor("Lspec/CsSpec"), eating_since_(n, kNever) {}

  void begin(SimTime t, const GlobalSnapshot& s0) override {
    step(t, s0, s0, spec::kDirtyAll);
  }
  void step(SimTime t, const GlobalSnapshot&, const GlobalSnapshot& cur,
            std::size_t dirty) override {
    spec::for_each_dirty_row(dirty, cur.procs.size(),
                             [&](std::size_t j) { scan_row(t, cur, j); });
  }
  void finish(SimTime, const GlobalSnapshot&) override {
    for (std::size_t j = 0; j < eating_since_.size(); ++j) {
      if (eating_since_[j] == kNever) continue;
      report(eating_since_[j], "process " + std::to_string(j) +
                                   " still eating at end of run (CS Spec: "
                                   "eating must be transient)");
    }
  }

 private:
  void scan_row(SimTime t, const GlobalSnapshot& s, std::size_t j) {
    if (s.procs[j].eating()) {
      if (eating_since_[j] == kNever) eating_since_[j] = t;
    } else {
      eating_since_[j] = kNever;
    }
  }
  std::vector<SimTime> eating_since_;
};

/// Request Spec's safety half: h.j => REQj = REQ'j — a request's timestamp
/// never changes while the request is outstanding.
class RequestFrozenMonitor : public TmeMonitor {
 public:
  RequestFrozenMonitor() : TmeMonitor("Lspec/RequestSpec") {}

  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override {
    spec::for_each_dirty_row(dirty, cur.procs.size(),
                             [&](std::size_t j) { check(t, prev, cur, j); });
  }

 private:
  void check(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
             std::size_t j) {
    if (prev.procs[j].hungry() && cur.procs[j].hungry() &&
        !(prev.procs[j].req == cur.procs[j].req)) {
      report(t, "process " + std::to_string(j) + " REQ moved " +
                    prev.procs[j].req.to_string() + " -> " +
                    cur.procs[j].req.to_string() + " while hungry");
    }
  }
};

/// CS Release Spec: t.j => REQj = ts.j (REQ glued to the clock of the most
/// recent event while thinking).
///
/// This clause reports on EVERY observed state while a row is bad, not only
/// on transitions into badness (the stabilization detector needs the exact
/// time the violation ended). It therefore keeps a per-row bad set: dirty
/// rows update their flag, and as long as any row is bad the full reporting
/// sweep runs — identical reports to a full scan, but O(1) per event on the
/// (overwhelmingly common) all-clean path.
class ReleaseTracksClockMonitor : public TmeMonitor {
 public:
  explicit ReleaseTracksClockMonitor(std::size_t n)
      : TmeMonitor("Lspec/CsReleaseSpec"), bad_(n, 0) {}

  void begin(SimTime t, const GlobalSnapshot& s0) override {
    step(t, s0, s0, spec::kDirtyAll);
  }
  void step(SimTime t, const GlobalSnapshot&, const GlobalSnapshot& cur,
            std::size_t dirty) override {
    spec::for_each_dirty_row(dirty, cur.procs.size(),
                             [&](std::size_t j) { update_row(cur, j); });
    report_bad(t, cur);
  }

 private:
  void update_row(const GlobalSnapshot& s, std::size_t j) {
    const char bad =
        (s.procs[j].thinking() && !(s.procs[j].req == s.procs[j].clock_now))
            ? 1
            : 0;
    bad_count_ += static_cast<std::size_t>(bad) -
                  static_cast<std::size_t>(bad_[j]);
    bad_[j] = bad;
  }
  void report_bad(SimTime t, const GlobalSnapshot& s) {
    if (bad_count_ == 0) return;
    for (std::size_t j = 0; j < bad_.size(); ++j) {
      if (!bad_[j]) continue;
      report(t, "process " + std::to_string(j) + " thinking with REQ " +
                    s.procs[j].req.to_string() + " != ts " +
                    s.procs[j].clock_now.to_string());
    }
  }
  std::vector<char> bad_;
  std::size_t bad_count_ = 0;
};

/// CS Entry Spec's progress half: when a process knows all peers' requests
/// are later, entry eventually follows (or the knowledge is revised).
class EntryTakenMonitor : public TmeMonitor {
 public:
  explicit EntryTakenMonitor(std::size_t n)
      : TmeMonitor("Lspec/CsEntrySpec"), enabled_since_(n, kNever) {}

  void begin(SimTime t, const GlobalSnapshot& s0) override {
    step(t, s0, s0, spec::kDirtyAll);
  }
  void step(SimTime t, const GlobalSnapshot&, const GlobalSnapshot& cur,
            std::size_t dirty) override {
    spec::for_each_dirty_row(dirty, cur.procs.size(),
                             [&](std::size_t j) { scan_row(t, cur, j); });
  }
  void finish(SimTime, const GlobalSnapshot&) override {
    for (std::size_t j = 0; j < enabled_since_.size(); ++j) {
      if (enabled_since_[j] == kNever) continue;
      report(enabled_since_[j],
             "process " + std::to_string(j) +
                 " had CS entry enabled but never entered (CS Entry Spec)");
    }
  }

 private:
  static bool entry_enabled(const GlobalSnapshot& s, std::size_t j) {
    // knows_all_earlier is O(1) on SnapshotSource buffers (cached per-row
    // knows-true counts), turning this clause's per-dirty-row cost from
    // O(N) into O(1).
    return s.procs[j].hungry() && s.knows_all_earlier(j);
  }
  void scan_row(SimTime t, const GlobalSnapshot& s, std::size_t j) {
    if (entry_enabled(s, j)) {
      if (enabled_since_[j] == kNever) enabled_since_[j] = t;
    } else {
      enabled_since_[j] = kNever;
    }
  }
  std::vector<SimTime> enabled_since_;
};

}  // namespace

std::uint64_t LspecClauseMonitors::total_violations() const {
  std::uint64_t total = 0;
  for (const auto* m :
       {flow, cs_transient, request_frozen, release_tracks_clock,
        entry_taken}) {
    if (m != nullptr) total += m->total_violations();
  }
  return total;
}

SimTime LspecClauseMonitors::last_violation() const {
  SimTime last = kNever;
  for (const auto* m :
       {flow, cs_transient, request_frozen, release_tracks_clock,
        entry_taken}) {
    if (m == nullptr) continue;
    const SimTime t = m->last_violation();
    if (t == kNever) continue;
    if (last == kNever || t > last) last = t;
  }
  return last;
}

LspecClauseMonitors install_lspec_clause_monitors(TmeMonitorSet& set,
                                                  std::size_t n) {
  LspecClauseMonitors handles;
  handles.flow = &set.add<FlowSpecSnapshotMonitor>();
  handles.cs_transient = &set.add<CsTransientMonitor>(n);
  handles.request_frozen = &set.add<RequestFrozenMonitor>();
  handles.release_tracks_clock = &set.add<ReleaseTracksClockMonitor>(n);
  handles.entry_taken = &set.add<EntryTakenMonitor>(n);
  return handles;
}

}  // namespace graybox::lspec
