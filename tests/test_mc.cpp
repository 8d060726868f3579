// Tests for the graybox model checker (mc::Explorer): trace round-trips,
// deterministic re-execution, the seeded-mutant detection matrix that
// backs the CI mutation smoke, clean baselines proving the detector does
// not cry wolf on the correct implementations, and every protocol's and
// mutant's batch knows row read against its per-peer relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "me/lamport.hpp"
#include "mc/explorer.hpp"
#include "mc/mutants.hpp"
#include "mc/trace.hpp"

namespace graybox::mc {
namespace {

// --- ScheduleTrace -----------------------------------------------------------

TEST(ScheduleTrace, TextFormRoundTrips) {
  ScheduleTrace t;
  t.seed = 42;
  t.choices = {0, 2, 0, 1};
  FaultAt f;
  f.at_event = 180;
  f.fault.code = net::FaultKind::kMessageDrop;
  f.fault.a = 1;
  f.fault.b = 0;
  f.fault.index = 3;
  t.faults.push_back(f);
  const TraceHeader header{{"--n=3", "--algorithm=lamport"}, "0123abcd", "me1"};

  TraceHeader read;
  const auto back = ScheduleTrace::from_text(t.to_text(header), &read);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(read.flags, header.flags);
  EXPECT_EQ(read.config, header.config);
  EXPECT_EQ(read.bug, header.bug);
  EXPECT_EQ(back->seed, 42u);
  EXPECT_EQ(back->choices, t.choices);
  ASSERT_EQ(back->faults.size(), 1u);
  EXPECT_EQ(back->faults[0].at_event, 180u);
  EXPECT_EQ(back->faults[0].fault.code, t.faults[0].fault.code);
  EXPECT_EQ(back->faults[0].fault.a, 1u);
  EXPECT_EQ(back->faults[0].fault.index, 3u);
  // Round-tripping the rendered text again is byte-stable.
  EXPECT_EQ(back->to_text(read), t.to_text(header));
}

TEST(ScheduleTrace, FromTextRejectsGarbage) {
  EXPECT_FALSE(ScheduleTrace::from_text("").has_value());
  EXPECT_FALSE(ScheduleTrace::from_text("not a trace\n").has_value());
  EXPECT_FALSE(ScheduleTrace::from_text("graybox-mc-trace v9\nseed 1\n")
                   .has_value());
  // v1 named no system, so its replays ran whatever the flags said.
  EXPECT_FALSE(ScheduleTrace::from_text("graybox-mc-trace v1\nseed 1\n")
                   .has_value());
  EXPECT_FALSE(ScheduleTrace::from_text("graybox-mc-trace v2\nconfig\n")
                   .has_value());
}

TEST(ScheduleTrace, RejectsUnknownFaultKind) {
  // The last FaultKind parses; one past it would replay as a silent no-op,
  // so the whole trace is refused.
  auto parse = [](const char* fault_line) {
    return ScheduleTrace::from_text(
        std::string("graybox-mc-trace v2\nseed 1\n") + fault_line);
  };
  const auto heal = parse("fault 10 10 0 1 0 0 0\n");
  ASSERT_TRUE(heal.has_value());
  EXPECT_EQ(heal->faults[0].fault.code, net::FaultKind::kPartitionHeal);
  EXPECT_FALSE(parse("fault 10 11 0 1 0 0 0\n").has_value());
  EXPECT_FALSE(parse("fault 10 42 0 1 0 0 0\n").has_value());
}

TEST(ScheduleTrace, StepsCountsFaultsAndNonDefaultChoices) {
  ScheduleTrace t;
  t.choices = {0, 3, 0, 0, 1};
  t.faults.resize(2);
  EXPECT_EQ(t.steps(), 4u);
  t.normalize();  // trailing zeros replay identically to absence
  EXPECT_EQ(t.choices.size(), 5u);
  t.choices = {1, 0, 0};
  t.normalize();
  EXPECT_EQ(t.choices.size(), 1u);
}

// --- Deterministic execution -------------------------------------------------

ExplorerConfig small_config(const std::string& algorithm, bool wrapped,
                            double think_mean) {
  ExplorerConfig ec;
  ec.harness.n = 2;
  ec.harness.algorithm = algorithm;
  ec.harness.wrapped = wrapped;
  ec.harness.client.think_mean = think_mean;
  ec.delay_budget = 3;
  return ec;
}

TEST(Explorer, ExecuteIsDeterministic) {
  register_mutants();
  ExplorerConfig ec = small_config("ricart-agrawala", true, 30.0);
  Explorer ex(ec);
  ScheduleTrace t;
  t.seed = 7;
  t.choices = {0, 1, 0, 2};
  const Outcome a = ex.execute(t);
  const Outcome b = ex.execute(t);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.bug, b.bug);
  // A fresh Explorer over the same config reproduces the digest too —
  // nothing about the outcome depends on explorer-instance state.
  Explorer ex2(ec);
  EXPECT_EQ(ex2.execute(t).digest, a.digest);
}

TEST(Explorer, OutOfRangeChoicesAreClampedNotFatal) {
  register_mutants();
  Explorer ex(small_config("lamport", true, 30.0));
  ScheduleTrace t;
  t.seed = 3;
  // Absurd choice indices must clamp to the live alternative count (the
  // shrinker and hand-edited trace files depend on this robustness).
  t.choices = {9999, 0, 12345, 7};
  const Outcome a = ex.execute(t);
  const Outcome b = ex.execute(t);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_FALSE(a.bug);
}

// --- Mutation detection ------------------------------------------------------
//
// Mirrors tools/graybox_mc --mutation-smoke: each seeded mutant must be
// found by bounded exploration and shrink to <= 10 steps. Fault-free
// configs, so kAnySafetyViolation is sound — the correct counterparts are
// provably clean under the same configs (baselines below).

void expect_caught(const char* algorithm, double think_mean,
                   const char* expect_kind_prefix) {
  register_mutants();
  ExplorerConfig ec = small_config(algorithm, false, think_mean);
  ec.budget = 200;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 4 && !found; ++seed) {
    ec.harness.seed = seed;
    Explorer ex(ec);
    const ExplorerResult r = ex.run();
    if (!r.found) continue;
    found = true;
    EXPECT_LE(r.counterexample.steps(), 10u) << algorithm;
    EXPECT_TRUE(r.outcome.bug);
    EXPECT_EQ(r.outcome.kind.rfind(expect_kind_prefix, 0), 0u)
        << algorithm << " kind=" << r.outcome.kind;
    // The shrunk counterexample replays to the same verdict.
    Explorer replay(ec);
    EXPECT_TRUE(replay.execute(r.counterexample).bug) << algorithm;
    // And the renderer produces a non-trivial explanation.
    const std::string text = ex.explain(r.counterexample);
    EXPECT_NE(text.find("graybox-mc-trace v2"), std::string::npos);
    EXPECT_NE(text.find(r.outcome.kind), std::string::npos);
  }
  EXPECT_TRUE(found) << algorithm << ": no seed in 1..4 caught the mutant";
}

TEST(MutationSmoke, RaTiebreakMutantCaughtAndShrunk) {
  expect_caught("mutant-ra-tiebreak", 3.0, "me1");
}

TEST(MutationSmoke, RaEagerReplyMutantCaughtAndShrunk) {
  expect_caught("mutant-ra-eager-reply", 20.0, "starvation");
}

TEST(MutationSmoke, LamportNoAckMutantCaughtAndShrunk) {
  expect_caught("mutant-lamport-no-ack", 10.0, "me1");
}

// --- Clean baselines ---------------------------------------------------------
//
// The correct implementations stay clean under the exact explorer configs
// that catch their mutants: detection is the defect, not the harness.

void expect_clean(const char* algorithm, double think_mean) {
  ExplorerConfig ec = small_config(algorithm, false, think_mean);
  ec.budget = 60;
  ec.harness.seed = 1;
  Explorer ex(ec);
  const ExplorerResult r = ex.run();
  EXPECT_FALSE(r.found) << algorithm << ": " << r.outcome.detail;
}

TEST(MutationSmoke, CorrectRicartAgrawalaCleanUnderTiebreakConfig) {
  expect_clean("ricart-agrawala", 3.0);
}

TEST(MutationSmoke, CorrectRicartAgrawalaCleanUnderEagerReplyConfig) {
  expect_clean("ricart-agrawala", 20.0);
}

TEST(MutationSmoke, CorrectLamportCleanUnderNoAckConfig) {
  expect_clean("lamport", 10.0);
}

// --- The knows row read in one call ------------------------------------------
//
// The snapshot reads each process's knows_earlier row through
// TmeProcess::fill_knows_row, which Lamport overrides with one pass. Every
// registered protocol, the mutants included, must write exactly what its
// own per-peer knows_earlier says: a mutant that inherited Lamport's pass
// would be observed by Lamport's relation while it enters by its own.

/// Every process's row of h against the per-peer loop; stops at the first
/// wrong row.
void expect_rows_match(core::SystemHarness& h, std::size_t n,
                       const std::string& where) {
  std::vector<char> row(n);
  for (ProcessId j = 0; j < n; ++j) {
    const me::TmeProcess& p = h.process(j);
    std::fill(row.begin(), row.end(), 2);
    const std::size_t ones = p.fill_knows_row(row);
    std::size_t expected_ones = 0;
    for (ProcessId k = 0; k < n; ++k) {
      const char expected = k != j && p.knows_earlier(k) ? 1 : 0;
      expected_ones += static_cast<std::size_t>(expected);
      if (row[k] != expected) {
        ADD_FAILURE() << where << ": row " << j << ", peer " << k << " reads "
                      << int{row[k]} << ", knows_earlier says "
                      << int{expected};
        return;
      }
    }
    ASSERT_EQ(ones, expected_ones) << where << ": row " << j;
  }
}

TEST(KnowsRow, BatchReadEqualsThePerPeerLoopForEveryProtocol) {
  register_mutants();
  for (const std::size_t n : {std::size_t{8}, std::size_t{256}}) {
    for (const me::Protocol* protocol :
         me::ProtocolRegistry::instance().protocols()) {
      const std::string at =
          std::string(protocol->name) + " n=" + std::to_string(n);
      core::HarnessConfig config;
      config.n = n;
      config.algorithm = std::string(protocol->name);
      config.wrapped = false;
      config.install_monitors = false;
      config.client.think_mean = 8.0 * static_cast<double>(n);
      config.client.eat_mean = 4;
      core::SystemHarness h(config);
      expect_rows_match(h, n, at + " initial");
      h.start();
      h.run_for(200);
      // Half the processes corrupted, 50 times over, with two ticks of the
      // protocol between corruptions.
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        h.run_for(2);
        Rng rng(seed);
        for (ProcessId j = seed % 2; j < n; j += 2)
          h.process(j).corrupt_state(rng);
        expect_rows_match(h, n, at + " seed " + std::to_string(seed));
      }
      // Lamport's surgical faults, on every process that is a LamportMe:
      // duplicate entries of one peer on both sides of REQ, an entry under
      // the process's own pid, and an emptied queue.
      if (dynamic_cast<me::LamportMe*>(&h.process(0)) == nullptr) continue;
      for (ProcessId j = 0; j < n; ++j) {
        auto& p = dynamic_cast<me::LamportMe&>(h.process(j));
        const ProcessId k = (j + 1) % n;
        p.fault_insert_queue_entry(k, clk::Timestamp{0, k});
        p.fault_insert_queue_entry(k, clk::Timestamp{p.req().counter + 1, k});
        p.fault_set_last_heard(k, clk::Timestamp{p.req().counter + 2, k});
      }
      expect_rows_match(h, n, at + " duplicate entries");
      for (ProcessId j = 0; j < n; ++j) {
        auto& p = dynamic_cast<me::LamportMe&>(h.process(j));
        p.fault_insert_queue_entry(j, clk::Timestamp{0, j});
      }
      expect_rows_match(h, n, at + " own-pid entry");
      for (ProcessId j = 0; j < n; ++j)
        dynamic_cast<me::LamportMe&>(h.process(j)).fault_clear_queue();
      expect_rows_match(h, n, at + " cleared queue");
    }
  }
}

}  // namespace
}  // namespace graybox::mc
