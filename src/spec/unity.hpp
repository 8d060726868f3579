// The UNITY temporal operators of Section 3.1 as monitors:
//
//   "p unless q"   - if p /\ ~q holds in a state, then p \/ q holds in the
//                    next state;
//   "stable(p)"    - p unless false;
//   "q invariant"  - q holds in the first observed state and stable(q)
//                    (checked directly as "q in every state");
//   "p |-> q"      - (leads-to) whenever p holds, q holds then or later;
//   "p ~-> q"      - (leads-to-always) p |-> q and once q, q forever after.
//
// Leads-to obligations that are still open when observation ends are
// reported at the time the obligation was opened: in a drained run (no new
// work admitted, channels flushed) an open obligation is a genuine liveness
// failure such as the deadlock of Section 4, not an artifact of stopping.
//
// Predicates are std::function over the snapshot type. These monitors judge
// whole states, so they ignore Monitor::step's dirty-row hint.
#pragma once

#include <functional>
#include <optional>

#include "spec/monitor.hpp"

namespace graybox::spec {

template <typename S>
using Pred = std::function<bool(const S&)>;

// ---------------------------------------------------------------------------

template <typename S>
class UnlessMonitor : public Monitor<S> {
 public:
  UnlessMonitor(std::string name, Pred<S> p, Pred<S> q)
      : Monitor<S>(std::move(name)), p_(std::move(p)), q_(std::move(q)) {}

  void step(SimTime t, const S& prev, const S& cur, std::size_t) override {
    if (p_(prev) && !q_(prev)) {
      if (!p_(cur) && !q_(cur))
        this->report(t, "p held without q, then both p and q fell");
    }
  }

 private:
  Pred<S> p_, q_;
};

template <typename S>
class StableMonitor : public Monitor<S> {
 public:
  StableMonitor(std::string name, Pred<S> p)
      : Monitor<S>(std::move(name)), p_(std::move(p)) {}

  void step(SimTime t, const S& prev, const S& cur, std::size_t) override {
    if (p_(prev) && !p_(cur)) this->report(t, "stable predicate fell");
  }

 private:
  Pred<S> p_;
};

template <typename S>
class InvariantMonitor : public Monitor<S> {
 public:
  InvariantMonitor(std::string name, Pred<S> q)
      : Monitor<S>(std::move(name)), q_(std::move(q)) {}

  void begin(SimTime t, const S& s0) override { check(t, s0); }
  void step(SimTime t, const S&, const S& cur, std::size_t) override {
    check(t, cur);
  }

 private:
  void check(SimTime t, const S& s) {
    if (!q_(s)) this->report(t, "invariant does not hold");
  }
  Pred<S> q_;
};

// ---------------------------------------------------------------------------

/// p |-> q with per-process obligations folded into one monitor: the
/// `describe` callback renders which obligation is open. An *anonymous*
/// obligation model suffices for TME because every Lspec leads-to clause is
/// per-process; instantiate one LeadsToMonitor per process.
template <typename S>
class LeadsToMonitor : public Monitor<S> {
 public:
  LeadsToMonitor(std::string name, Pred<S> p, Pred<S> q)
      : Monitor<S>(std::move(name)), p_(std::move(p)), q_(std::move(q)) {}

  void begin(SimTime t, const S& s0) override {
    if (p_(s0) && !q_(s0)) open(t);
    if (q_(s0)) discharge();
  }

  void step(SimTime t, const S&, const S& cur, std::size_t) override {
    // Order matters: q discharges obligations including one opened by this
    // same state satisfying p (q "then or later" includes "then").
    if (p_(cur)) open(t);
    if (q_(cur)) discharge();
  }

  void finish(SimTime, const S&) override {
    if (opened_at_.has_value()) {
      this->report(*opened_at_, "leads-to obligation never discharged");
      opened_at_.reset();
    }
  }

  /// Number of times an obligation was discharged (p happened and q
  /// followed). Useful to assert the monitor exercised the property.
  std::uint64_t discharged() const { return discharged_; }

  bool obligation_open() const { return opened_at_.has_value(); }

 private:
  void open(SimTime t) {
    if (!opened_at_.has_value()) opened_at_ = t;
  }
  void discharge() {
    if (opened_at_.has_value()) {
      opened_at_.reset();
      ++discharged_;
    }
  }

  Pred<S> p_, q_;
  std::optional<SimTime> opened_at_;
  std::uint64_t discharged_ = 0;
};

/// p ~-> q (leads-to-always, pronounced "p leads to always q" in the
/// paper): p |-> q plus stable(q) *after the leads-to is first fulfilled*.
/// The paper defines it as (p |-> q) /\ stable(q); we monitor both parts.
template <typename S>
class LeadsToAlwaysMonitor : public Monitor<S> {
 public:
  LeadsToAlwaysMonitor(std::string name, Pred<S> p, Pred<S> q)
      : Monitor<S>(name),
        leads_(name + "/leads-to", p, q),
        stable_(name + "/stable", std::move(q)) {}

  void begin(SimTime t, const S& s0) override { leads_.begin(t, s0); }

  void step(SimTime t, const S& prev, const S& cur,
            std::size_t dirty) override {
    leads_.step(t, prev, cur, dirty);
    stable_.step(t, prev, cur, dirty);
    merge(t);
  }

  void finish(SimTime t, const S& last) override {
    leads_.finish(t, last);
    merge(t);
  }

 private:
  void merge(SimTime) {
    for (std::size_t i = reported_leads_; i < leads_.violations().size(); ++i)
      this->report(leads_.violations()[i].time, leads_.violations()[i].detail);
    reported_leads_ = leads_.violations().size();
    for (std::size_t i = reported_stable_; i < stable_.violations().size();
         ++i)
      this->report(stable_.violations()[i].time,
                   "stability part: " + stable_.violations()[i].detail);
    reported_stable_ = stable_.violations().size();
  }

  LeadsToMonitor<S> leads_;
  StableMonitor<S> stable_;
  std::size_t reported_leads_ = 0;
  std::size_t reported_stable_ = 0;
};

// ---------------------------------------------------------------------------

/// Free-form transition check for structural clauses that are most natural
/// as direct prev/cur comparisons (e.g. Structural Spec's "exactly one of
/// h, e, t, and only legal moves"). Returning a non-empty optional reports
/// a violation with that detail.
template <typename S>
class TransitionMonitor : public Monitor<S> {
 public:
  using CheckFn =
      std::function<std::optional<std::string>(const S& prev, const S& cur)>;

  TransitionMonitor(std::string name, CheckFn check)
      : Monitor<S>(std::move(name)), check_(std::move(check)) {}

  void step(SimTime t, const S& prev, const S& cur, std::size_t) override {
    if (auto detail = check_(prev, cur)) this->report(t, std::move(*detail));
  }

 private:
  CheckFn check_;
};

/// Free-form per-state check (safety predicates with custom diagnostics).
template <typename S>
class StateMonitor : public Monitor<S> {
 public:
  using CheckFn = std::function<std::optional<std::string>(const S& cur)>;

  StateMonitor(std::string name, CheckFn check)
      : Monitor<S>(std::move(name)), check_(std::move(check)) {}

  void begin(SimTime t, const S& s0) override { run(t, s0); }
  void step(SimTime t, const S&, const S& cur, std::size_t) override {
    run(t, cur);
  }

 private:
  void run(SimTime t, const S& s) {
    if (auto detail = check_(s)) this->report(t, std::move(*detail));
  }
  CheckFn check_;
};

}  // namespace graybox::spec
