// Unit tests for the monitor framework and the row-local UNITY operators,
// driven with a state of plain integer rows.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "spec/monitor.hpp"
#include "spec/unity.hpp"

namespace graybox::spec {
namespace {

/// One int per row: row j is process j's observable.
struct Rows {
  std::vector<int> x;
  std::size_t size() const { return x.size(); }
};

using Set = MonitorSet<Rows>;

/// Feed whole states through the copying observe() (hint kDirtyAll).
void feed(Set& set, std::initializer_list<Rows> states, SimTime start = 0) {
  SimTime t = start;
  for (const Rows& s : states) set.observe(t++, s);
}

/// Drives a set through observe_ref() with explicit dirty hints. The deque
/// keeps each state at a stable address, as observe_ref() requires.
struct HintedRun {
  Set set;
  std::deque<Rows> states;

  void observe(SimTime t, Rows cur, std::size_t dirty) {
    states.push_back(std::move(cur));
    const Rows& prev = states.size() > 1 ? states[states.size() - 2]
                                         : states.back();
    set.observe_ref(t, prev, states.back(), dirty);
  }
};

const auto kNonDecreasing = [](const Rows& prev, const Rows& cur,
                               std::size_t j) { return cur.x[j] >= prev.x[j]; };
const auto kFell = [](const Rows& prev, const Rows& cur, std::size_t j) {
  return "row " + std::to_string(j) + " fell " + std::to_string(prev.x[j]) +
         " -> " + std::to_string(cur.x[j]);
};

auto at_least(int v) {
  return [v](const Rows& s, std::size_t j) { return s.x[j] >= v; };
}
auto equals(int v) {
  return [v](const Rows& s, std::size_t j) { return s.x[j] == v; };
}
const auto kRowDetail = [](const Rows&, std::size_t j) {
  return "row " + std::to_string(j);
};

std::vector<std::string> details(const Monitor<Rows>& m) {
  std::vector<std::string> out;
  for (const Violation& v : m.violations()) out.push_back(v.to_string());
  return out;
}

// --- unless ---------------------------------------------------------------

TEST(RowUnless, ReportsEachBadStepWithItsDetail) {
  Set set;
  auto& m = unless(set, "u", kNonDecreasing, kFell);
  feed(set, {{{1, 1}}, {{2, 0}}, {{0, 0}}, {{0, 3}}});
  EXPECT_EQ(m.total_violations(), 2u);
  EXPECT_EQ(details(m), (std::vector<std::string>{"[1] u: row 1 fell 1 -> 0",
                                                  "[2] u: row 0 fell 2 -> 0"}));
}

TEST(RowUnless, VisitsOnlyTheHintedRows) {
  int visits = 0;
  HintedRun run;
  unless(
      run.set, "u",
      [&visits](const Rows& prev, const Rows& cur, std::size_t j) {
        ++visits;
        return cur.x[j] >= prev.x[j];
      },
      kFell);
  run.observe(0, {{0, 0, 0, 0}}, kDirtyAll);
  EXPECT_EQ(visits, 0);  // the first state is no step
  run.observe(1, {{0, 0, 1, 0}}, 2);
  EXPECT_EQ(visits, 1);
  run.observe(2, {{0, 0, 1, 0}}, kDirtyNone);
  EXPECT_EQ(visits, 1);
  run.observe(3, {{0, 0, 1, 0}}, kDirtyAll);
  EXPECT_EQ(visits, 5);
  EXPECT_TRUE(run.set.clean());
}

// --- invariant ------------------------------------------------------------

TEST(RowInvariant, ChecksFirstState) {
  Set set;
  auto& m = invariant(set, "i", at_least(0), kRowDetail);
  feed(set, {{{-1, 0, -2}}});
  EXPECT_EQ(details(m),
            (std::vector<std::string>{"[0] i: row 0", "[0] i: row 2"}));
}

TEST(RowInvariant, ChecksEveryState) {
  Set set;
  auto& m = invariant(set, "i", at_least(1), kRowDetail);
  feed(set, {{{1}}, {{0}}, {{1}}, {{0}}});
  EXPECT_EQ(m.total_violations(), 2u);
  EXPECT_EQ(m.first_violation(), 1u);
  EXPECT_EQ(m.last_violation(), 3u);
}

TEST(RowInvariant, CleanRun) {
  Set set;
  auto& m = invariant(set, "i", at_least(0), kRowDetail);
  feed(set, {{{0, 4}}, {{5, 4}}, {{3, 0}}});
  EXPECT_TRUE(m.clean());
}

TEST(RowInvariant, BadRowOutsideTheHintKeepsReporting) {
  // Steps that name other rows, or none, still report the bad row: the
  // last violation time is the last state in which it was bad.
  HintedRun run;
  auto& m = invariant(run.set, "i", at_least(0), kRowDetail);
  run.observe(0, {{0, 0, 0}}, kDirtyAll);
  run.observe(1, {{0, -1, 0}}, 1);
  run.observe(2, {{5, -1, 0}}, 0);
  run.observe(3, {{5, -1, 0}}, kDirtyNone);
  run.observe(4, {{5, 0, 0}}, 1);
  run.observe(5, {{5, 0, 7}}, 2);
  EXPECT_EQ(m.total_violations(), 3u);
  EXPECT_EQ(m.first_violation(), 1u);
  EXPECT_EQ(m.last_violation(), 3u);
  EXPECT_EQ(details(m), (std::vector<std::string>{
                            "[1] i: row 1", "[2] i: row 1", "[3] i: row 1"}));
}

// --- leads-to ---------------------------------------------------------------

TEST(RowLeadsTo, DischargedObligationIsClean) {
  Set set;
  auto& m = leads_to(set, "l", equals(1), equals(2), kRowDetail);
  feed(set, {{{0}}, {{1}}, {{0}}, {{2}}});
  set.finish(10);
  EXPECT_TRUE(m.clean());
}

TEST(RowLeadsTo, UndischargedReportedAtOpenTime) {
  Set set;
  auto& m = leads_to(set, "l", equals(1), equals(2), kRowDetail);
  feed(set, {{{0}}, {{0}}, {{1}}, {{0}}});
  set.finish(10);
  EXPECT_EQ(details(m), std::vector<std::string>{"[2] l: row 0"});
}

TEST(RowLeadsTo, PAndQSimultaneouslyDischarges) {
  // "then or later" includes "then": a state satisfying both opens and
  // immediately discharges.
  Set set;
  auto& m = leads_to(set, "l", at_least(2), at_least(2), kRowDetail);
  feed(set, {{{0}}, {{5}}});
  set.finish(10);
  EXPECT_TRUE(m.clean());
}

TEST(RowLeadsTo, RepeatedCycles) {
  // Each discharge closes the obligation; the next p opens a new one at its
  // own time.
  Set set;
  auto& m = leads_to(set, "l", equals(1), equals(2), kRowDetail);
  feed(set, {{{1}}, {{2}}, {{1}}, {{2}}, {{1}}, {{1}}});
  set.finish(10);
  EXPECT_EQ(details(m), std::vector<std::string>{"[4] l: row 0"});
}

TEST(RowLeadsTo, BeginStateCanOpen) {
  Set set;
  auto& m = leads_to(set, "l", equals(1), equals(2), kRowDetail);
  feed(set, {{{1}}, {{1}}});
  set.finish(5);
  EXPECT_EQ(details(m), std::vector<std::string>{"[0] l: row 0"});
}

TEST(RowLeadsTo, ObligationsArePerRow) {
  Set set;
  auto& m = leads_to(set, "l", equals(1), equals(2), kRowDetail);
  feed(set, {{{0, 0}}, {{1, 0}}, {{1, 1}}, {{2, 1}}, {{2, 1}}});
  set.finish(9);
  EXPECT_EQ(details(m), std::vector<std::string>{"[2] l: row 1"});
}

// --- MonitorSet -------------------------------------------------------------

TEST(MonitorSet, AggregatesAcrossMonitors) {
  Set set;
  invariant(set, "a", at_least(1), kRowDetail);
  invariant(set, "b", at_least(2), kRowDetail);
  feed(set, {{{1}}});
  EXPECT_FALSE(set.clean());
  EXPECT_EQ(set.total_violations(), 1u);
  EXPECT_EQ(set.size(), 2u);
}

TEST(MonitorSet, CleanWhenNoViolation) {
  Set set;
  invariant(set, "a", at_least(0), kRowDetail);
  feed(set, {{{0}}, {{1}}});
  EXPECT_TRUE(set.clean());
  for (const auto& m : set.monitors()) EXPECT_EQ(m->last_violation(), kNever);
}

TEST(MonitorSet, FinishIsIdempotent) {
  Set set;
  auto& m = leads_to(set, "l", equals(1), equals(2), kRowDetail);
  feed(set, {{{1}}});
  set.finish(5);
  set.finish(6);
  EXPECT_EQ(m.total_violations(), 1u);
}

TEST(MonitorSet, ObservedStatesCounted) {
  Set set;
  feed(set, {{{1}}, {{2}}, {{3}}});
  EXPECT_EQ(set.observed_states(), 3u);
}

// --- Violation caps ------------------------------------------------------------

TEST(MonitorBase, RetentionCapKeepsExactCounters) {
  Set set;
  auto& m = invariant(set, "i", at_least(1), kRowDetail);
  for (int i = 0; i < 1000; ++i)
    set.observe(static_cast<SimTime>(i), Rows{{0}});
  EXPECT_EQ(m.total_violations(), 1000u);
  EXPECT_LE(m.violations().size(), 256u);
  EXPECT_EQ(m.last_violation(), 999u);
  EXPECT_EQ(m.first_violation(), 0u);
}

TEST(MonitorBase, DetailIsBuiltOnlyForRetainedRecords) {
  // A monitor that reports on every state: its formatter runs for the
  // kMaxRetained records that are kept and for no other, while the totals,
  // the first and last times and the hook stay exact.
  struct Flood : Monitor<Rows> {
    Flood() : Monitor<Rows>("flood") {}
    void begin(SimTime t, const Rows&) override { flood(t); }
    void step(SimTime t, const Rows&, const Rows&, std::size_t) override {
      flood(t);
    }
    void flood(SimTime t) {
      report(t, [this] {
        ++formatted;
        return std::string("detail");
      });
    }
    int formatted = 0;
  };
  Set set;
  auto& m = set.add<Flood>();
  int hooks = 0;
  set.set_violation_hook([&hooks](SimTime, std::size_t) { ++hooks; });
  for (SimTime t = 5; t < 1005; ++t) set.observe(t, Rows{{0}});
  EXPECT_EQ(m.formatted, 256);
  EXPECT_EQ(m.violations().size(), 256u);
  EXPECT_EQ(m.total_violations(), 1000u);
  EXPECT_EQ(m.first_violation(), 5u);
  EXPECT_EQ(m.last_violation(), 1004u);
  EXPECT_EQ(hooks, 1000);
}

TEST(ViolationHelpers, ToString) {
  const Violation v{7, "ME1", "two eaters"};
  EXPECT_EQ(v.to_string(), "[7] ME1: two eaters");
}

}  // namespace
}  // namespace graybox::spec
