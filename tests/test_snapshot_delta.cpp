// The delta snapshot pipeline, checked directly and end to end.
//
// SnapshotSource::capture re-reads only the rows the network's touched-pid
// list names and reports the change as last_dirty(); monitors then visit
// only the dirty rows. Two checks hold that pipeline to its reference:
//
//   * Capture: after every event, the harness's own snapshot pair is
//     checked: the capture equals capture_full() field for field (cached
//     counts and knows_all_earlier included), and every row outside
//     last_dirty() equals previous().
//   * Verdicts: the same seed with HarnessConfig::reference_substrate off
//     and on (every monitor stepped with kDirtyAll, its full check) must
//     judge identically — per-monitor totals, first/last violation times,
//     retained records, stats, CS schedules (tests/observed_run.hpp).
//
// Both run across the full fault matrix at N=4, and under a crash/recover
// stream. The verdict check alone also runs on other seeds and sizes: the
// N=4 fault matrix again, a five-process Carvalho-Roucairol burst, and
// N=64, where most rows stay clean between events.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "lspec/snapshot.hpp"
#include "net/fault_injector.hpp"
#include "observed_run.hpp"
#include "protocol_param.hpp"

namespace graybox::core {
namespace {

using lspec::GlobalSnapshot;

/// First difference between row j of `a` and row j of `b`; empty if none.
std::string row_diff(const GlobalSnapshot& a, const GlobalSnapshot& b,
                     std::size_t j) {
  const std::string row = "row " + std::to_string(j) + ": ";
  const lspec::ProcessSnapshot& pa = a.procs[j];
  const lspec::ProcessSnapshot& pb = b.procs[j];
  if (pa.state != pb.state) return row + "state";
  if (!(pa.req == pb.req)) return row + "req";
  if (!(pa.clock_now == pb.clock_now)) return row + "clock_now";
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a.knows_earlier(j, k) != b.knows_earlier(j, k))
      return row + "knows_earlier[" + std::to_string(k) + "]";
    if (a.vc_row(j)[k] != b.vc_row(j)[k])
      return row + "vc[" + std::to_string(k) + "]";
  }
  if (a.knows_all_earlier(j) != b.knows_all_earlier(j))
    return row + "knows_all_earlier";
  return {};
}

/// Checks a harness's own snapshot pair after every event against
/// capture_full() and previous(). Registered after the harness's observer,
/// so it sees each capture right after the monitors do. Only the first
/// mismatch is kept, so a broken capture reports once, not per event.
class CaptureCheck {
 public:
  explicit CaptureCheck(SystemHarness& h) : source_(h.snapshots()) {
    h.scheduler().add_observer([this](SimTime t) { check(t); });
  }
  // The scheduler observer holds `this`.
  CaptureCheck(const CaptureCheck&) = delete;
  CaptureCheck& operator=(const CaptureCheck&) = delete;

  std::uint64_t captures() const { return captures_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_; }

 private:
  void check(SimTime t) {
    const GlobalSnapshot& cur = source_.current();
    const GlobalSnapshot full = source_.capture_full(t);
    ++captures_;
    if (cur.time != full.time) fail(t, "time");
    if (cur.in_flight != full.in_flight) fail(t, "in_flight");
    if (cur.eating_count() != full.eating_count()) fail(t, "eating_count");
    if (cur.hungry_count() != full.hungry_count()) fail(t, "hungry_count");
    for (std::size_t j = 0; j < cur.size(); ++j) {
      const std::string diff = row_diff(cur, full, j);
      if (!diff.empty()) fail(t, "vs capture_full, " + diff);
    }
    // Rows the hint leaves out must not have moved since the last capture.
    const std::size_t dirty = source_.last_dirty();
    if (dirty == spec::kDirtyAll) return;
    for (std::size_t j = 0; j < cur.size(); ++j) {
      if (j == dirty) continue;
      const std::string diff = row_diff(cur, source_.previous(), j);
      if (!diff.empty()) fail(t, "clean row moved, " + diff);
    }
  }

  void fail(SimTime t, const std::string& what) {
    if (mismatches_++ == 0) first_ = "t=" + std::to_string(t) + " " + what;
  }

  const lspec::SnapshotSource& source_;
  std::uint64_t captures_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string first_;
};

/// Both checks on one configuration. Returns the shipping run.
test::ObservedRun check_pipeline(HarnessConfig config,
                                 const test::RunShape& shape) {
  SystemHarness h(config);
  const CaptureCheck capture(h);
  const test::ObservedRun shipping = test::observe_run(h, shape);
  EXPECT_EQ(capture.captures(), shipping.stats.events_executed);
  EXPECT_EQ(capture.mismatches(), 0u) << capture.first_mismatch();

  config.reference_substrate = true;
  test::expect_equivalent(shipping, test::observe_run(config, shape));
  return shipping;
}

/// Both checks on one 4-process burst run.
test::ObservedRun check_pipeline(const std::string& algo, net::FaultMix mix,
                                 std::size_t burst, std::uint64_t seed) {
  return check_pipeline(test::equivalence_config(algo, 4, seed),
                        {mix, burst, 400, 3000, 2000});
}

// --- Full fault matrix: each kind alone, per algorithm --------------------

class DeltaVsFullByFaultKind
    : public ::testing::TestWithParam<
          std::tuple<test::Protocol, net::FaultKind, std::uint64_t>> {};

TEST_P(DeltaVsFullByFaultKind, IdenticalVerdicts) {
  const auto [protocol, kind, seed] = GetParam();
  check_pipeline(test::registry_name(protocol), net::FaultMix::only(kind), 6,
                 seed);
}

std::string matrix_name(
    const ::testing::TestParamInfo<
        std::tuple<test::Protocol, net::FaultKind, std::uint64_t>>& info) {
  std::string name = test::registry_name(std::get<0>(info.param));
  name += "_";
  name += net::to_string(std::get<1>(info.param));
  name += "_s" + std::to_string(std::get<2>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DeltaVsFullByFaultKind,
    ::testing::Combine(
        ::testing::Values(test::Protocol::kRicartAgrawala,
                          test::Protocol::kLamport),
        ::testing::Values(net::FaultKind::kMessageDrop,
                          net::FaultKind::kMessageDuplicate,
                          net::FaultKind::kMessageCorrupt,
                          net::FaultKind::kMessageReorder,
                          net::FaultKind::kSpuriousMessage,
                          net::FaultKind::kProcessCorrupt,
                          net::FaultKind::kChannelClear),
        ::testing::Values(7u)),
    matrix_name);

// --- Mixed bursts, fault-free runs, and the fragile implementation --------

TEST(DeltaVsFull, MixedBurstRicartAgrawala) {
  check_pipeline("ricart-agrawala", net::FaultMix::all(), 15, 3);
}

TEST(DeltaVsFull, MixedBurstLamport) {
  check_pipeline("lamport", net::FaultMix::all(), 15, 4);
}

TEST(DeltaVsFull, FaultFreeRunsAreCleanOnBothPaths) {
  const test::ObservedRun run =
      check_pipeline("ricart-agrawala", net::FaultMix::all(), 0, 5);
  for (const auto total : run.totals) EXPECT_EQ(total, 0u);
}

// Fragile drops messages under contention by design: violations without any
// injected fault, exercising the monitors' steady-state reporting paths.
TEST(DeltaVsFull, FragileImplementationMatchesEvenWhenUnstable) {
  check_pipeline("fragile-ra", net::FaultMix::all(), 10, 6);
}

// A delivery to a crashed process still moves its vector clock, but the
// harness swallows the message before the process runs, so the network's
// touch in deliver() is the only sign that the row changed.
TEST(DeltaVsFull, CrashRecoverStreamTouchesCrashedReceivers) {
  HarnessConfig config = test::equivalence_config("ricart-agrawala", 4, 8);
  config.fault_process.crash_mean = 300;
  config.fault_process.downtime_mean = 150;
  config.fault_process.end = 3400;  // quiet drain
  const test::ObservedRun run =
      check_pipeline(config, {net::FaultMix::all(), 0, 400, 3000, 2000});
  EXPECT_GT(run.stats.crashes, 0u);
  EXPECT_GT(run.stats.deliveries_to_crashed, 0u);
}

// --- Verdicts alone: dirty-row monitors vs kDirtyAll ----------------------
//
// The SparseVsDense* and IncrementalVsFullSweep* names are kept as stable
// test ids; both compare the dirty-row monitors against kDirtyAll.

void expect_equivalent_runs(const std::string& algo, std::size_t n,
                            net::FaultMix mix, std::size_t burst,
                            std::uint64_t seed, SimTime horizon) {
  const test::RunShape shape{mix, burst, horizon / 4, horizon, horizon};
  HarnessConfig config = test::equivalence_config(algo, n, seed);
  const test::ObservedRun shipping = test::observe_run(config, shape);
  config.reference_substrate = true;
  test::expect_equivalent(shipping, test::observe_run(config, shape));
}

class SparseVsDenseByFaultKind
    : public ::testing::TestWithParam<
          std::tuple<test::Protocol, net::FaultKind, std::uint64_t>> {};

TEST_P(SparseVsDenseByFaultKind, IdenticalVerdicts) {
  const auto [protocol, kind, seed] = GetParam();
  const std::string algo = test::registry_name(protocol);
  expect_equivalent_runs(algo, 4, net::FaultMix::only(kind), 6, seed, 3000);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SparseVsDenseByFaultKind,
    ::testing::Combine(
        ::testing::Values(test::Protocol::kRicartAgrawala,
                          test::Protocol::kLamport),
        ::testing::Values(net::FaultKind::kMessageDrop,
                          net::FaultKind::kMessageDuplicate,
                          net::FaultKind::kMessageCorrupt,
                          net::FaultKind::kMessageReorder,
                          net::FaultKind::kSpuriousMessage,
                          net::FaultKind::kProcessCorrupt,
                          net::FaultKind::kChannelClear),
        ::testing::Values(11u)),
    matrix_name);

TEST(SparseVsDense, MixedBurstCarvalhoRoucairol) {
  expect_equivalent_runs("carvalho-roucairol", 5, net::FaultMix::all(), 15, 3,
                         3000);
}

TEST(SparseVsDense, N64MixedBurst) {
  expect_equivalent_runs("ricart-agrawala", 64, net::FaultMix::all(), 12, 9,
                         1200);
}

class IncrementalVsFullSweep
    : public ::testing::TestWithParam<net::FaultKind> {};

TEST_P(IncrementalVsFullSweep, IdenticalVerdictsAtN64) {
  expect_equivalent_runs("ricart-agrawala", 64,
                         net::FaultMix::only(GetParam()), 10, 13, 900);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, IncrementalVsFullSweep,
    ::testing::Values(net::FaultKind::kMessageDrop,
                      net::FaultKind::kMessageDuplicate,
                      net::FaultKind::kMessageCorrupt,
                      net::FaultKind::kMessageReorder,
                      net::FaultKind::kSpuriousMessage,
                      net::FaultKind::kProcessCorrupt,
                      net::FaultKind::kChannelClear),
    [](const ::testing::TestParamInfo<net::FaultKind>& info) {
      std::string name = net::to_string(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(IncrementalVsFullSweep, MutualBeliefMonitorCoveredAtN64) {
  // Carvalho-Roucairol installs the 5th monitor (MutualBelief); its
  // dirty-row guard needs its own equivalence run.
  expect_equivalent_runs("carvalho-roucairol", 64, net::FaultMix::all(), 10,
                         17, 900);
}

}  // namespace
}  // namespace graybox::core
