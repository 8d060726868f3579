// The UNITY operators of Section 3.1, row-local.
//
// Lspec is a local specification (Section 2.1): every clause constrains one
// process. These operators therefore judge one row j of a state at a time
// and visit only the rows Monitor::step's dirty hint names. A row outside
// the hint is bit-identical to its predecessor, so skipping it can neither
// miss a step nor advance that row's obligation. S needs only size(), its
// row count.
//
//   unless(ok)      - a step property ok(prev, cur, j). UNITY's "p unless q"
//                     is one (ok = p /\ ~q => p' \/ q'), and so are the
//                     paper's primed clauses, e.g. h.j => REQj = REQ'j.
//   invariant(q)    - q(s, j) holds on every row of every state. While any
//                     row is bad, every state reports every bad row, so the
//                     latest violation time stays exact; a clean step costs
//                     O(1).
//   leads_to(p, q)  - p(s, j) |-> q(s, j): once p holds, q holds then or
//                     later. One open time per row; finish() reports each
//                     obligation still open at the time it opened. In a
//                     drained run (no new work admitted, channels flushed)
//                     that is a genuine liveness failure such as the deadlock
//                     of Section 4, not an artifact of stopping.
//
// Each takes a detail formatter that renders a violated row's report; it
// runs only for the records Monitor::report retains.
// Predicates and formatters are template parameters, so the row check
// inlines; the factories at the bottom deduce them, e.g.
// spec::unless(set, name, ok, detail).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "spec/monitor.hpp"

namespace graybox::spec {

template <typename S, typename Ok, typename Detail>
class RowUnless : public Monitor<S> {
 public:
  RowUnless(std::string name, Ok ok, Detail detail)
      : Monitor<S>(std::move(name)),
        ok_(std::move(ok)),
        detail_(std::move(detail)) {}

  void step(SimTime t, const S& prev, const S& cur,
            std::size_t dirty) override {
    for_each_dirty_row(dirty, cur.size(), [&](std::size_t j) {
      if (!ok_(prev, cur, j))
        this->report(t, [&] { return detail_(prev, cur, j); });
    });
  }

 private:
  Ok ok_;
  Detail detail_;
};

template <typename S, typename Q, typename Detail>
class RowInvariant : public Monitor<S> {
 public:
  RowInvariant(std::string name, Q q, Detail detail)
      : Monitor<S>(std::move(name)),
        q_(std::move(q)),
        detail_(std::move(detail)) {}

  void begin(SimTime t, const S& s0) override {
    bad_.assign(s0.size(), 0);
    step(t, s0, s0, kDirtyAll);
  }

  void step(SimTime t, const S&, const S& cur, std::size_t dirty) override {
    for_each_dirty_row(dirty, cur.size(), [&](std::size_t j) {
      const char bad = q_(cur, j) ? 0 : 1;
      bad_count_ += static_cast<std::size_t>(bad) -
                    static_cast<std::size_t>(bad_[j]);
      bad_[j] = bad;
    });
    if (bad_count_ == 0) return;
    for (std::size_t j = 0; j < bad_.size(); ++j)
      if (bad_[j]) this->report(t, [&] { return detail_(cur, j); });
  }

 private:
  Q q_;
  Detail detail_;
  std::vector<char> bad_;
  std::size_t bad_count_ = 0;
};

template <typename S, typename P, typename Q, typename Detail>
class RowLeadsTo : public Monitor<S> {
 public:
  RowLeadsTo(std::string name, P p, Q q, Detail detail)
      : Monitor<S>(std::move(name)),
        p_(std::move(p)),
        q_(std::move(q)),
        detail_(std::move(detail)) {}

  void begin(SimTime t, const S& s0) override {
    open_since_.assign(s0.size(), kNever);
    step(t, s0, s0, kDirtyAll);
  }

  void step(SimTime t, const S&, const S& cur, std::size_t dirty) override {
    for_each_dirty_row(dirty, cur.size(), [&](std::size_t j) {
      // Open before discharging: q "then or later" includes "then". A row
      // with no obligation and no p has nothing to discharge.
      if (open_since_[j] == kNever) {
        if (!p_(cur, j)) return;
        open_since_[j] = t;
      }
      if (q_(cur, j)) open_since_[j] = kNever;
    });
  }

  void finish(SimTime, const S& last) override {
    for (std::size_t j = 0; j < open_since_.size(); ++j)
      if (open_since_[j] != kNever)
        this->report(open_since_[j], [&] { return detail_(last, j); });
  }

 private:
  P p_;
  Q q_;
  Detail detail_;
  std::vector<SimTime> open_since_;
};

/// Install ok(prev, cur, j) as a step property; detail(prev, cur, j)
/// renders a bad step of row j.
template <typename S, typename Ok, typename Detail>
RowUnless<S, Ok, Detail>& unless(MonitorSet<S>& set, std::string name, Ok ok,
                                 Detail detail) {
  return set.template add<RowUnless<S, Ok, Detail>>(
      std::move(name), std::move(ok), std::move(detail));
}

/// Install q(s, j) as an invariant of every row; detail(s, j) renders a bad
/// row.
template <typename S, typename Q, typename Detail>
RowInvariant<S, Q, Detail>& invariant(MonitorSet<S>& set, std::string name,
                                      Q q, Detail detail) {
  return set.template add<RowInvariant<S, Q, Detail>>(
      std::move(name), std::move(q), std::move(detail));
}

/// Install p(s, j) |-> q(s, j); detail(last, j) renders row j's obligation
/// left open at finish().
template <typename S, typename P, typename Q, typename Detail>
RowLeadsTo<S, P, Q, Detail>& leads_to(MonitorSet<S>& set, std::string name,
                                      P p, Q q, Detail detail) {
  return set.template add<RowLeadsTo<S, P, Q, Detail>>(
      std::move(name), std::move(p), std::move(q), std::move(detail));
}

}  // namespace graybox::spec
