// Monitors for TME Spec (Section 3.1) and for the invariant the paper's
// Theorem A.1 derives from Lspec. These are the monitors whose violations
// are *expected* to occur transiently under faults and to cease after
// stabilization; the stabilization detector (src/core) measures the gap
// between the last injected fault and their last violation.
//
//   ME1 (Mutual Exclusion)      - at most one process eats at a time;
//   ME2 (Starvation Freedom)    - h.j |-> e.j, monitored as: a process
//                                 observed hungry eventually stops being
//                                 hungry, and in a drained run nobody is
//                                 left hungry at the end. (Program
//                                 transitions leave hungry only by eating,
//                                 so for program behaviour this coincides
//                                 with ME2; fault jumps h -> t are not
//                                 counted as service.)
//   ME3 (First-Come First-Serve)- if j's request happened-before k's
//                                 request, j enters the CS first. Decided
//                                 exactly with monitor-side vector clocks.
//   Invariant I (Theorem A.1)   - the safety-relevant projection of
//                                 "j.REQk = REQk \/ j.REQk lt REQk":
//                                 whenever a process *believes* its request
//                                 is earlier than k's (knows_earlier), the
//                                 requests' true timestamps agree.
//   Mutual Belief               - the pairwise weakening of Invariant I for
//                                 implementations whose entry guard rests
//                                 on retained permissions rather than views
//                                 (Carvalho-Roucairol): two competing
//                                 processes must never simultaneously
//                                 believe they precede each other. Installed
//                                 only when some process's protocol opts out
//                                 of Invariant I's per-view truth
//                                 (SpecConformance::view_entry_truth).
//
// Collapsed entries: a process whose entry guard already holds when it
// requests enters the CS within the same simulator event, so monitors
// observe t -> e directly (Carvalho-Roucairol does this on every retained
// permission; Ricart-Agrawala only from corrupted-high views). ME2 and ME3
// distinguish such genuine collapsed request+entry steps from fault jumps
// into the CS by the monitor-side vector clock: a real request ticks the
// process's own component (net::Network::local_event), a fault does not.
#pragma once

#include "lspec/snapshot.hpp"
#include "spec/monitor.hpp"

namespace graybox::lspec {

using TmeMonitor = spec::Monitor<GlobalSnapshot>;
using TmeMonitorSet = spec::MonitorSet<GlobalSnapshot>;

/// ME1: (forall j,k :: e.j /\ e.k => j = k).
class Me1Monitor : public TmeMonitor {
 public:
  Me1Monitor();
  void begin(SimTime t, const GlobalSnapshot& s0) override;
  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override;

  /// Number of distinct overlap episodes (entries into violation).
  std::uint64_t episodes() const { return episodes_; }

 private:
  void check(SimTime t, const GlobalSnapshot& s);
  bool in_violation_ = false;
  std::uint64_t episodes_ = 0;
};

/// ME2: starvation freedom, with service statistics.
class Me2Monitor : public TmeMonitor {
 public:
  explicit Me2Monitor(std::size_t n);
  void begin(SimTime t, const GlobalSnapshot& s0) override;
  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override;
  void finish(SimTime t, const GlobalSnapshot& last) override;

  /// Requests served, collapsed t -> e entries (wait 0; see the file
  /// comment) included.
  std::uint64_t served() const { return served_; }
  /// Longest completed hungry->eating wait observed.
  SimTime max_wait() const { return max_wait_; }
  /// True iff the drained run ended with someone still hungry (deadlock or
  /// starvation — the failure mode of Section 4's scenario).
  bool starvation_at_end() const { return starvation_at_end_; }

 private:
  void scan(SimTime t, const GlobalSnapshot& s);
  void step_row(SimTime t, const GlobalSnapshot& prev,
                const GlobalSnapshot& cur, std::size_t j);
  void scan_row(SimTime t, const GlobalSnapshot& s, std::size_t j);
  std::vector<SimTime> hungry_since_;
  std::uint64_t served_ = 0;
  SimTime max_wait_ = 0;
  bool starvation_at_end_ = false;
};

/// ME3: FCFS via happened-before on request events.
///
/// `fcfs_claims` (empty or size n) marks which processes assert
/// SpecConformance::fcfs. An entry by a non-claiming process
/// (Carvalho-Roucairol, whose leased fast path deliberately overtakes
/// causally earlier requests) is exempt from the overtake check; entries
/// without a recorded request — fault jumps into the CS — are reported for
/// every process. Empty means every process claims.
class Me3Monitor : public TmeMonitor {
 public:
  explicit Me3Monitor(std::size_t n, std::vector<char> fcfs_claims = {});
  void begin(SimTime t, const GlobalSnapshot& s0) override;
  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override;

  std::uint64_t entries_checked() const { return entries_checked_; }

 private:
  struct OpenRequest {
    bool open = false;
    SimTime at = 0;
    /// Flat vector-clock components at request time (copied from the
    /// snapshot's vc row; the allocation is reused across requests).
    std::vector<std::uint64_t> vc;
  };
  void on_request(std::size_t j, SimTime t, const GlobalSnapshot& cur);
  void on_entry(std::size_t j, SimTime t, const GlobalSnapshot& cur);
  void step_row(SimTime t, const GlobalSnapshot& prev,
                const GlobalSnapshot& cur, std::size_t j);
  bool claims_fcfs(std::size_t j) const {
    return claims_.empty() || claims_[j] != 0;
  }

  std::vector<OpenRequest> open_;
  std::vector<char> claims_;
  std::uint64_t entries_checked_ = 0;
};

/// Invariant I (relation form): knows_earlier(j,k) => REQj lt REQk.
///
/// `claims` marks which processes assert SpecConformance::view_entry_truth;
/// the belief of a process that does not claim it (Carvalho-Roucairol,
/// whose entry guard is permission-backed) is exempt from the per-view
/// check. Empty means every process claims.
class InvariantIMonitor : public TmeMonitor {
 public:
  explicit InvariantIMonitor(std::vector<char> claims = {});
  void begin(SimTime t, const GlobalSnapshot& s0) override;
  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override;

 private:
  /// Report the first hungry claiming believer with a bad k, and its first
  /// bad k. O(N²) with bad_k_count_ empty (the first state and every
  /// kDirtyAll step); with the counts maintained, a violating state costs
  /// O(N).
  void check(SimTime t, const GlobalSnapshot& s);
  /// Recompute bad_k_count_ from scratch (O(N²)).
  void rebuild_counts(const GlobalSnapshot& s);
  /// Fold one dirty row into bad_k_count_: row m's believer count is
  /// recomputed (its req and knows row both changed, O(N)) and every other
  /// believer j adjusts only its (j, m) term — knows_earlier(j, m) and
  /// REQj live in row j, which is clean, so the term's old value is
  /// computable from `prev` in O(1). O(N) total per dirty row; the column
  /// pass is skipped when REQm did not move, since no term can change.
  void fold_dirty_row(const GlobalSnapshot& prev, const GlobalSnapshot& cur,
                      std::size_t m);
  bool claims(std::size_t j) const {
    return j >= claims_.size() || claims_[j] != 0;
  }
  std::vector<char> claims_;
  /// Per believer j (claiming only): #{k != j : knows_earlier(j, k) and
  /// not REQj lt REQk}. Maintained for every j regardless of h.j — the
  /// hungry gate is applied at report time, matching check()'s scan.
  /// Empty while not maintained: before the first row-hinted step and
  /// after every kDirtyAll step.
  std::vector<std::uint32_t> bad_k_count_;
  bool in_violation_ = false;
};

/// Mutual Belief: (forall j != k :: h.j /\ h.k =>
/// !(knows_earlier(j,k) /\ knows_earlier(k,j))). The pairwise weakening of
/// Invariant I that every everywhere-implementation must satisfy regardless
/// of how its entry guard is backed: two competing processes believing they
/// precede each other is precisely the double-permission state from which
/// bare Carvalho-Roucairol violates ME1. Installed alongside Invariant I
/// when some process opts out of view_entry_truth.
class MutualBeliefMonitor : public TmeMonitor {
 public:
  MutualBeliefMonitor();
  void begin(SimTime t, const GlobalSnapshot& s0) override;
  void step(SimTime t, const GlobalSnapshot& prev, const GlobalSnapshot& cur,
            std::size_t dirty) override;

  /// Distinct entries into violation (mirrors Me1Monitor::episodes).
  std::uint64_t episodes() const { return episodes_; }

 private:
  /// Report s when `bad`, naming its first pair, and track episodes.
  void judge(SimTime t, const GlobalSnapshot& s, bool bad);
  /// The number of mutually-believing hungry pairs, exact while counted_:
  /// a single-row step moves it by that row's pairs in cur minus those in
  /// prev (O(N)). A kDirtyAll step runs the plain O(N²) check instead and
  /// clears counted_; the next row-hinted step recounts (O(N²)).
  std::size_t pairs_ = 0;
  bool counted_ = false;
  bool in_violation_ = false;
  std::uint64_t episodes_ = 0;
};

/// Handles to the TME battery's monitors, for stats queries.
struct TmeMonitors {
  Me1Monitor* me1 = nullptr;
  Me2Monitor* me2 = nullptr;
  Me3Monitor* me3 = nullptr;
  InvariantIMonitor* invariant_i = nullptr;
  /// Non-null only when some process opts out of view_entry_truth.
  MutualBeliefMonitor* mutual_belief = nullptr;
};

/// Populate a monitor set with the TME battery: ME1, ME2, ME3 and
/// Invariant I. `view_entry_truth_claims[j]` is process j's
/// SpecConformance::view_entry_truth and `fcfs_claims[j]` its
/// SpecConformance::fcfs; an empty vector reads like an all-claiming one.
/// Invariant I and ME3 exempt the non-claiming processes, and a
/// MutualBeliefMonitor is appended as the 5th monitor when some process
/// opts out of view_entry_truth.
TmeMonitors install_tme_monitors(TmeMonitorSet& set, std::size_t n,
                                 std::vector<char> view_entry_truth_claims = {},
                                 std::vector<char> fcfs_claims = {});

}  // namespace graybox::lspec
