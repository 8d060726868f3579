#include "lspec/tme_monitors.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/contracts.hpp"

namespace graybox::lspec {
namespace {

std::string pid_list(const GlobalSnapshot& s, me::TmeState state) {
  std::string out;
  for (std::size_t j = 0; j < s.procs.size(); ++j) {
    if (s.procs[j].state != state) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(j);
  }
  return out;
}

/// An all-claiming vector reads exactly like an empty one; the empty form
/// spares the monitors a per-process lookup on their hot paths.
std::vector<char> unless_all_claim(std::vector<char> claims) {
  if (std::find(claims.begin(), claims.end(), 0) == claims.end())
    claims.clear();
  return claims;
}

}  // namespace

// --- ME1 -------------------------------------------------------------------

Me1Monitor::Me1Monitor() : TmeMonitor("ME1") {}

void Me1Monitor::begin(SimTime t, const GlobalSnapshot& s0) { check(t, s0); }

void Me1Monitor::step(SimTime t, const GlobalSnapshot&,
                      const GlobalSnapshot& cur, std::size_t dirty) {
  // While in violation every event must re-report (the stabilization
  // detector needs the exact end time); while clean, an untouched snapshot
  // cannot start one. check() itself is O(1) on the clean path thanks to
  // the cached eating count.
  if (!in_violation_ && dirty == spec::kDirtyNone) return;
  check(t, cur);
}

void Me1Monitor::check(SimTime t, const GlobalSnapshot& s) {
  const bool bad = s.eating_count() > 1;
  if (bad) {
    if (!in_violation_) ++episodes_;
    report(t, [&s] {
      return "processes {" + pid_list(s, me::TmeState::kEating) +
             "} eating simultaneously";
    });
  }
  in_violation_ = bad;
}

// --- ME2 -------------------------------------------------------------------

Me2Monitor::Me2Monitor(std::size_t n)
    : TmeMonitor("ME2"), hungry_since_(n, kNever) {}

void Me2Monitor::begin(SimTime t, const GlobalSnapshot& s0) { scan(t, s0); }

void Me2Monitor::step(SimTime t, const GlobalSnapshot& prev,
                      const GlobalSnapshot& cur, std::size_t dirty) {
  // All bookkeeping is per-row-local: an untouched row has no transition
  // to count and its hungry episode neither opens nor closes (hungry_since_
  // was set when the row last changed).
  spec::for_each_dirty_row(dirty, cur.procs.size(), [&](std::size_t j) {
    step_row(t, prev, cur, j);
  });
}

void Me2Monitor::step_row(SimTime t, const GlobalSnapshot& prev,
                          const GlobalSnapshot& cur, std::size_t j) {
  // Collapsed request+entry (t -> e whose own vector-clock component
  // advanced — a genuine request ticks it, a fault jump does not; see
  // the file comment): the request was served within one event, wait 0.
  if (prev.procs[j].state == me::TmeState::kThinking &&
      cur.procs[j].eating() && cur.vc_row(j)[j] > prev.vc_row(j)[j]) {
    ++served_;
  }
  scan_row(t, cur, j);
}

void Me2Monitor::scan(SimTime t, const GlobalSnapshot& s) {
  for (std::size_t j = 0; j < s.procs.size(); ++j) scan_row(t, s, j);
}

void Me2Monitor::scan_row(SimTime t, const GlobalSnapshot& s, std::size_t j) {
  const bool hungry = s.procs[j].hungry();
  if (hungry) {
    if (hungry_since_[j] == kNever) hungry_since_[j] = t;
    return;
  }
  if (hungry_since_[j] != kNever) {
    // Leaving hungry by a program transition means entering the CS
    // (h -> e); a fault jump elsewhere simply cancels the episode.
    if (s.procs[j].eating()) {
      ++served_;
      const SimTime wait = t - hungry_since_[j];
      if (wait > max_wait_) max_wait_ = wait;
    }
    hungry_since_[j] = kNever;
  }
}

void Me2Monitor::finish(SimTime, const GlobalSnapshot&) {
  for (std::size_t j = 0; j < hungry_since_.size(); ++j) {
    if (hungry_since_[j] == kNever) continue;
    starvation_at_end_ = true;
    report(hungry_since_[j], [j] {
      return "process " + std::to_string(j) +
             " hungry at end of drained run (starvation/deadlock)";
    });
  }
}

// --- ME3 -------------------------------------------------------------------

Me3Monitor::Me3Monitor(std::size_t n, std::vector<char> fcfs_claims)
    : TmeMonitor("ME3"), open_(n), claims_(std::move(fcfs_claims)) {
  GBX_EXPECTS(claims_.empty() || claims_.size() == n);
}

void Me3Monitor::begin(SimTime t, const GlobalSnapshot& s0) {
  // Processes already hungry in the very first state are open requests
  // whose causal position is the current clock.
  for (std::size_t j = 0; j < s0.procs.size(); ++j) {
    if (s0.procs[j].hungry()) on_request(j, t, s0);
  }
}

void Me3Monitor::step(SimTime t, const GlobalSnapshot& prev,
                      const GlobalSnapshot& cur, std::size_t dirty) {
  // The monitor only acts on state *transitions*, which an untouched row
  // cannot have; on_request/on_entry read only row j plus the open-request
  // table, both unaffected by skipped clean rows.
  spec::for_each_dirty_row(dirty, cur.procs.size(), [&](std::size_t j) {
    step_row(t, prev, cur, j);
  });
}

void Me3Monitor::step_row(SimTime t, const GlobalSnapshot& prev,
                          const GlobalSnapshot& cur, std::size_t j) {
  const me::TmeState before = prev.procs[j].state;
  const me::TmeState after = cur.procs[j].state;
  if (before == after) return;
  if (after == me::TmeState::kHungry) on_request(j, t, cur);
  if (after == me::TmeState::kEating) {
    // Collapsed request+entry (t -> e in one event): a genuine program
    // step ticks the process's own vector-clock component when it
    // requests (net::Network::local_event); a fault jump into the CS
    // does not. Register the implicit request so the FCFS check runs
    // against the entry's true causal position instead of treating it
    // as a spurious jump.
    if (!open_[j].open && cur.vc_row(j)[j] > prev.vc_row(j)[j])
      on_request(j, t, cur);
    on_entry(j, t, cur);
  }
  if (after == me::TmeState::kThinking) open_[j].open = false;
}

namespace {

/// happened_before over flat component rows: componentwise <= with at
/// least one strict < (exactly clk::VectorClock::happened_before).
bool vc_happened_before(const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
  bool some_strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) some_strict = true;
  }
  return some_strict;
}

}  // namespace

void Me3Monitor::on_request(std::size_t j, SimTime t,
                            const GlobalSnapshot& cur) {
  open_[j].open = true;
  open_[j].at = t;
  const auto row = cur.vc_row(j);
  open_[j].vc.assign(row.begin(), row.end());
}

void Me3Monitor::on_entry(std::size_t j, SimTime t,
                          const GlobalSnapshot& cur) {
  ++entries_checked_;
  if (open_[j].open) {
    // FCFS: no peer with a request that happened-before ours may still be
    // waiting when we enter. A process that does not claim
    // SpecConformance::fcfs is exempt: its permission-backed fast path
    // overtakes by design, fault-free.
    if (!claims_fcfs(j)) {
      open_[j].open = false;
      return;
    }
    for (std::size_t k = 0; k < open_.size(); ++k) {
      if (k == j || !open_[k].open) continue;
      if (!cur.procs[k].hungry()) continue;
      if (open_[k].vc.size() == open_[j].vc.size() &&
          vc_happened_before(open_[k].vc, open_[j].vc)) {
        report(t, [j, k] {
          return "process " + std::to_string(j) + " overtook process " +
                 std::to_string(k) + " whose request happened-before";
        });
      }
    }
  } else {
    // Entry without a recorded request: a fault jump straight into the CS.
    // It overtakes every open request (there is no order to respect).
    for (std::size_t k = 0; k < open_.size(); ++k) {
      if (k == j || !open_[k].open) continue;
      if (!cur.procs[k].hungry()) continue;
      report(t, [j, k] {
        return "process " + std::to_string(j) +
               " entered the CS without a request while process " +
               std::to_string(k) + " was waiting";
      });
      break;  // one report per spurious entry suffices
    }
  }
  open_[j].open = false;
}

// --- Invariant I -------------------------------------------------------------

InvariantIMonitor::InvariantIMonitor(std::vector<char> claims)
    : TmeMonitor("InvariantI"), claims_(std::move(claims)) {}

void InvariantIMonitor::begin(SimTime t, const GlobalSnapshot& s0) {
  check(t, s0);
}

void InvariantIMonitor::step(SimTime t, const GlobalSnapshot& prev,
                             const GlobalSnapshot& cur, std::size_t dirty) {
  if (dirty == spec::kDirtyAll) {
    // The plain full check. Dropping the counts keeps this path O(N²) per
    // step; the next row-hinted step rebuilds them.
    bad_k_count_.clear();
    check(t, cur);
    return;
  }
  // While clean, an untouched snapshot cannot start a violation. While in
  // violation every event must re-report (exact violation end time); the
  // maintained per-believer bad counts make both the fold and the report
  // O(N), so violating windows do not pay the O(N²) sweep.
  if (dirty == spec::kDirtyNone && !in_violation_) return;
  if (bad_k_count_.size() != cur.procs.size()) {
    rebuild_counts(cur);
  } else if (dirty != spec::kDirtyNone) {
    fold_dirty_row(prev, cur, dirty);
  }
  check(t, cur);
}

void InvariantIMonitor::rebuild_counts(const GlobalSnapshot& s) {
  const std::size_t n = s.procs.size();
  bad_k_count_.assign(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!claims(j)) continue;
    std::uint32_t c = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == j || !s.knows_earlier(j, k)) continue;
      if (!clk::lt(s.procs[j].req, s.procs[k].req)) ++c;
    }
    bad_k_count_[j] = c;
  }
}

void InvariantIMonitor::fold_dirty_row(const GlobalSnapshot& prev,
                                       const GlobalSnapshot& cur,
                                       std::size_t m) {
  const std::size_t n = cur.procs.size();
  // m as believer: REQm and knows row m both changed — recompute its count.
  if (claims(m)) {
    std::uint32_t c = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == m || !cur.knows_earlier(m, k)) continue;
      if (!clk::lt(cur.procs[m].req, cur.procs[k].req)) ++c;
    }
    bad_k_count_[m] = c;
  }
  // m as believed-about: for every other believer j, only the (j, m) term
  // can have changed — knows_earlier(j, m) and REQj are in clean row j —
  // and it reads row m only through REQm, so none moved if REQm did not.
  if (prev.procs[m].req == cur.procs[m].req) return;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == m || !claims(j)) continue;
    if (!cur.knows_earlier(j, m)) continue;
    const bool was_bad = !clk::lt(cur.procs[j].req, prev.procs[m].req);
    const bool is_bad = !clk::lt(cur.procs[j].req, cur.procs[m].req);
    if (was_bad != is_bad) bad_k_count_[j] += is_bad ? 1u : -1u;
  }
}

void InvariantIMonitor::check(SimTime t, const GlobalSnapshot& s) {
  bool bad = false;
  for (std::size_t j = 0; j < s.procs.size() && !bad; ++j) {
    // The belief only matters while competing: Lspec reads the views in
    // CS Entry Spec's guard, which is conjoined with h.j.
    if (!s.procs[j].hungry()) continue;
    // A process that does not claim view_entry_truth (its entry guard is
    // permission-backed, not view-backed) is exempt; MutualBeliefMonitor
    // covers it instead.
    if (!claims(j)) continue;
    // Maintained counts skip a believer with no bad k in O(1).
    if (!bad_k_count_.empty() && bad_k_count_[j] == 0) continue;
    for (std::size_t k = 0; k < s.procs.size(); ++k) {
      if (k == j || !s.knows_earlier(j, k)) continue;
      if (!clk::lt(s.procs[j].req, s.procs[k].req)) {
        bad = true;
        // Report every bad state (the base class caps retention but keeps
        // exact first/last times), so the stabilization detector sees when
        // the violation *ended*, not just when it began.
        report(t, [&s, j, k] {
          return "process " + std::to_string(j) + " believes " +
                 s.procs[j].req.to_string() + " lt REQ(" + std::to_string(k) +
                 ")=" + s.procs[k].req.to_string() + ", which is false";
        });
        break;
      }
    }
  }
  in_violation_ = bad;
}

// --- Mutual Belief -----------------------------------------------------------

namespace {

/// Does j, hungry, form a mutually-believing hungry pair with k?
bool mutual(const GlobalSnapshot& s, std::size_t j, std::size_t k) {
  return s.procs[k].hungry() && s.knows_earlier(j, k) &&
         s.knows_earlier(k, j);
}

/// The pairs {m, k} of s: O(N), 0 unless m is hungry.
std::size_t row_pairs(const GlobalSnapshot& s, std::size_t m) {
  if (!s.procs[m].hungry()) return 0;
  std::size_t pairs = 0;
  for (std::size_t k = 0; k < s.procs.size(); ++k)
    if (k != m && mutual(s, m, k)) ++pairs;
  return pairs;
}

/// The first pair {j, k} of s in (j, k) order, j < k: O(N²).
std::optional<std::pair<std::size_t, std::size_t>> first_pair(
    const GlobalSnapshot& s) {
  for (std::size_t j = 0; j < s.procs.size(); ++j) {
    if (!s.procs[j].hungry()) continue;
    for (std::size_t k = j + 1; k < s.procs.size(); ++k)
      if (mutual(s, j, k)) return std::pair{j, k};
  }
  return std::nullopt;
}

}  // namespace

MutualBeliefMonitor::MutualBeliefMonitor() : TmeMonitor("MutualBelief") {}

void MutualBeliefMonitor::begin(SimTime t, const GlobalSnapshot& s0) {
  judge(t, s0, first_pair(s0).has_value());
}

void MutualBeliefMonitor::step(SimTime t, const GlobalSnapshot& prev,
                               const GlobalSnapshot& cur, std::size_t dirty) {
  if (dirty == spec::kDirtyAll) {
    // The plain full check. It drops the count; the next row-hinted step
    // recounts.
    counted_ = false;
    judge(t, cur, first_pair(cur).has_value());
    return;
  }
  // While clean, an untouched snapshot cannot start a violation. While in
  // violation every event must re-report (exact violation end time); the
  // maintained pair count makes that O(N) per dirty row and O(1) per clean
  // event, so violating windows do not pay the O(N²) sweep.
  if (dirty == spec::kDirtyNone && !in_violation_) return;
  if (!counted_) {
    pairs_ = 0;
    for (std::size_t j = 0; j < cur.procs.size(); ++j)
      pairs_ += row_pairs(cur, j);
    pairs_ /= 2;
    counted_ = true;
  } else if (dirty != spec::kDirtyNone) {
    // Every row but m is the same in prev and cur, so only the pairs that
    // involve m can have moved.
    pairs_ = pairs_ - row_pairs(prev, dirty) + row_pairs(cur, dirty);
  }
  judge(t, cur, pairs_ != 0);
}

void MutualBeliefMonitor::judge(SimTime t, const GlobalSnapshot& s,
                                bool bad) {
  if (bad) {
    if (!in_violation_) ++episodes_;
    // Like Invariant I, report every bad state so the stabilization
    // detector sees when the violation ended.
    report(t, [&s] {
      const auto [j, k] = *first_pair(s);
      return "processes " + std::to_string(j) + " and " + std::to_string(k) +
             " each believe their request precedes the other's";
    });
  }
  in_violation_ = bad;
}

// --- Battery -----------------------------------------------------------------

TmeMonitors install_tme_monitors(TmeMonitorSet& set, std::size_t n,
                                 std::vector<char> view_entry_truth_claims,
                                 std::vector<char> fcfs_claims) {
  view_entry_truth_claims =
      unless_all_claim(std::move(view_entry_truth_claims));
  const bool some_opt_out = !view_entry_truth_claims.empty();
  TmeMonitors handles;
  handles.me1 = &set.add<Me1Monitor>();
  handles.me2 = &set.add<Me2Monitor>(n);
  handles.me3 =
      &set.add<Me3Monitor>(n, unless_all_claim(std::move(fcfs_claims)));
  handles.invariant_i =
      &set.add<InvariantIMonitor>(std::move(view_entry_truth_claims));
  if (some_opt_out) handles.mutual_belief = &set.add<MutualBeliefMonitor>();
  return handles;
}

}  // namespace graybox::lspec
