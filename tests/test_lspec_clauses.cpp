// Tests for the per-clause Lspec monitors: clean on fault-free runs of the
// everywhere programs, each clause individually triggerable by the matching
// surgical fault, and clean suffixes after recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "me/ricart_agrawala.hpp"
#include "protocol_param.hpp"

namespace graybox::core {
namespace {

/// The clause monitors' names, in installation order.
constexpr std::array<std::string_view, 5> kClauses = {
    "Lspec/FlowSpec", "Lspec/CsSpec", "Lspec/RequestSpec",
    "Lspec/CsReleaseSpec", "Lspec/CsEntrySpec"};

/// The installed monitor named `name`.
const lspec::TmeMonitor& clause(SystemHarness& h, std::string_view name) {
  for (const auto& m : h.monitors().monitors())
    if (m->name() == name) return *m;
  throw std::invalid_argument("no monitor named " + std::string(name));
}

HarnessConfig config_for(const std::string& algo) {
  HarnessConfig config;
  config.n = 3;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 15;
  config.client.think_mean = 30;
  config.client.eat_mean = 6;
  config.seed = 77;
  return config;
}

class LspecClauseFaultFree
    : public ::testing::TestWithParam<test::Protocol> {};

TEST_P(LspecClauseFaultFree, AllClausesClean) {
  SystemHarness h(config_for(test::registry_name(GetParam())));
  h.start();
  h.run_for(5000);
  h.drain(3000);
  // The clause battery closes the set, after the TME battery.
  const std::vector<std::string> names = h.monitors().monitor_names();
  ASSERT_GE(names.size(), kClauses.size());
  EXPECT_TRUE(std::equal(kClauses.begin(), kClauses.end(),
                         names.end() - kClauses.size()));
  for (const std::string_view name : kClauses)
    EXPECT_EQ(clause(h, name).total_violations(), 0u) << name;
  EXPECT_EQ(h.stats().lspec_clause_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, LspecClauseFaultFree,
                         ::testing::Values(test::Protocol::kRicartAgrawala,
                                           test::Protocol::kLamport,
                                           test::Protocol::kCarvalhoRoucairol),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case test::Protocol::kRicartAgrawala:
                               return "ra";
                             case test::Protocol::kLamport:
                               return "lamport";
                             default:
                               return "cr";
                           }
                         });

TEST(LspecClauses, FlowSpecFlagsIllegalJump) {
  // Park process 0 hungry (outgoing requests lost), then fault it straight
  // back to thinking: h -> t is never a program transition, and the
  // thinking state sticks long enough for the next snapshot to see it.
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.process(0).request_cs();
  h.network().channel(0, 1).fault_clear();
  h.network().channel(0, 2).fault_clear();
  h.run_for(3);
  ASSERT_TRUE(h.process(0).hungry());
  h.process(0).fault_set_state(me::TmeState::kThinking);
  h.run_for(3);
  EXPECT_GT(clause(h, "Lspec/FlowSpec").total_violations(), 0u);
}

TEST(LspecClauses, RequestSpecFlagsMovedReq) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  // Park process 0 hungry (its requests are lost), then corrupt its REQ.
  h.process(0).request_cs();
  h.network().channel(0, 1).fault_clear();
  h.network().channel(0, 2).fault_clear();
  h.run_for(3);
  ASSERT_TRUE(h.process(0).hungry());
  h.process(0).fault_set_req(clk::Timestamp{999, 0});
  h.run_for(3);
  EXPECT_GT(clause(h, "Lspec/RequestSpec").total_violations(), 0u);
}

TEST(LspecClauses, ReleaseSpecFlagsDetachedReq) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(100);
  while (!h.process(0).thinking()) h.run_for(2);
  h.process(0).fault_set_req(clk::Timestamp{123456, 0});
  h.run_for(3);
  EXPECT_GT(clause(h, "Lspec/CsReleaseSpec").total_violations(), 0u);
}

TEST(LspecClauses, ReleaseSpecViolationHealsOnNextEvent) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(100);
  while (!h.process(0).thinking()) h.run_for(2);
  h.process(0).fault_set_req(clk::Timestamp{123456, 0});
  h.run_for(2000);
  h.drain(2000);
  const lspec::TmeMonitor& release = clause(h, "Lspec/CsReleaseSpec");
  // The clause was violated transiently...
  EXPECT_GT(release.total_violations(), 0u);
  // ...but healed: the last violation precedes the end by a wide margin.
  EXPECT_LT(release.last_violation(), 1000u);
}

TEST(LspecClauses, CsSpecFlagsEternalEater) {
  // Stop process 0's client (its release obligation with it) while the
  // other clients keep generating events for the snapshot stream: a faked
  // eternal eater is then a genuine CS Spec violation.
  HarnessConfig config = config_for("ricart-agrawala");
  config.client.wants_cs = false;
  SystemHarness h(config);
  h.start();
  h.client(0).stop();
  h.run_for(50);
  h.process(0).fault_set_state(me::TmeState::kEating);
  h.run_for(500);
  h.drain(500);
  EXPECT_GT(clause(h, "Lspec/CsSpec").total_violations(), 0u);
}

TEST(LspecClauses, EntrySpecCleanBecausePollingTakesEntries) {
  // Corrupt a process into "hungry with favorable views": the client's
  // poll must take the enabled entry, so the clause stays clean overall
  // after the drain.
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(100);
  auto& p0 = dynamic_cast<me::RicartAgrawala&>(h.process(0));
  p0.fault_set_state(me::TmeState::kHungry);
  p0.fault_set_req(clk::Timestamp{1, 0});
  p0.fault_set_view(1, clk::Timestamp{1'000'000, 1});
  p0.fault_set_view(2, clk::Timestamp{1'000'000, 2});
  h.run_for(3000);
  h.drain(2000);
  EXPECT_EQ(clause(h, "Lspec/CsEntrySpec").total_violations(), 0u);
}

TEST(LspecClauses, EntrySpecFlagsAnEnabledEntryNobodyTakes) {
  // Unwrapped, no client requests and process 0's client stopped: nothing
  // polls process 0 or sends it a message, so an entry a corruption enables
  // is never taken. The obligation opens at the first snapshot after the
  // corruption (the other clients poll every 2 ticks) and is reported at
  // that time when the drained run ends.
  HarnessConfig config = config_for("ricart-agrawala");
  config.wrapped = false;
  config.client.wants_cs = false;
  SystemHarness h(config);
  h.start();
  h.client(0).stop();
  h.run_for(50);
  const SimTime corrupted_at = h.scheduler().now();
  auto& p0 = dynamic_cast<me::RicartAgrawala&>(h.process(0));
  p0.fault_set_state(me::TmeState::kHungry);
  p0.fault_set_req(clk::Timestamp{1, 0});
  p0.fault_set_view(1, clk::Timestamp{1'000'000, 1});
  p0.fault_set_view(2, clk::Timestamp{1'000'000, 2});
  h.run_for(500);
  h.drain(500);
  const lspec::TmeMonitor& entry = clause(h, "Lspec/CsEntrySpec");
  EXPECT_EQ(entry.total_violations(), 1u);
  EXPECT_GE(entry.first_violation(), corrupted_at);
  EXPECT_LE(entry.first_violation(), corrupted_at + 2);
}

TEST(LspecClauses, CleanSuffixAfterRandomCorruption) {
  SystemHarness h(config_for("lamport"));
  h.start();
  h.run_for(500);
  h.faults().burst(6, net::FaultMix::process_only());
  const SimTime fault_at = h.scheduler().now();
  h.run_for(6000);
  h.drain(4000);
  // Whatever clause violations occurred sit in a bounded window after the
  // fault; the suffix is clean.
  for (const std::string_view name : kClauses) {
    const SimTime last = clause(h, name).last_violation();
    if (last == kNever) continue;
    EXPECT_GE(last, fault_at) << name;
    EXPECT_LT(last, fault_at + 6000) << name;
  }
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

}  // namespace
}  // namespace graybox::core
