// Sparse clock stamps: golden equivalence against the dense reference.
//
// The wire format changed (net::Message carries a ClockStamp — usually a
// delta of the components changed since the channel's last genuine send —
// instead of a full VectorClock copy), but the clocks every process
// computes must not change by a single bit. Two layers of evidence:
//
//   1. Unit/fuzz tests on ClockStamp itself: a single-channel simulation
//      where the receiver folds delta/dense stamps and must track, exactly,
//      a dense-reference receiver that witnesses the sender's full clock —
//      across 2..300 components, random change patterns, and the
//      absorb_older unions the fault-repair path builds.
//   2. Dual-harness runs across the full fault matrix: the same seed with
//      HarnessConfig::reference_substrate off and on (dense wire clocks, and
//      every monitor stepped with kDirtyAll) must produce identical monitor
//      verdicts, stats, CS schedules, and stabilization reports. At N=64
//      the same battery certifies the monitors' dirty-row paths — TME and
//      Lspec clause monitors alike — verdict-identical to their full checks
//      under every fault kind.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "clock/clock_stamp.hpp"
#include "clock/vector_clock.hpp"
#include "net/fault_injector.hpp"
#include "observed_run.hpp"
#include "protocol_param.hpp"

namespace graybox {
namespace {

using clk::ClockStamp;
using clk::VectorClock;

// --- ClockStamp unit behaviour --------------------------------------------

TEST(ClockStamp, EmptyDenseDeltaModes) {
  ClockStamp empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  VectorClock c(2, 5);
  c.tick();
  c.tick();
  ClockStamp dense = ClockStamp::dense(c);
  ASSERT_TRUE(dense.is_dense());
  EXPECT_EQ(dense.size(), 5u);
  EXPECT_EQ(dense.to_clock().component(2), 2u);

  ClockStamp delta = ClockStamp::delta(2, 5);
  ASSERT_TRUE(delta.is_delta());
  EXPECT_TRUE(delta.add_entry(2, 2));
  EXPECT_TRUE(delta.add_entry(4, 7));
  EXPECT_EQ(delta.size(), 5u);  // components spoken for, not entry count
  EXPECT_EQ(delta.entries().size(), 2u);
  const VectorClock back = delta.to_clock();
  EXPECT_EQ(back.component(2), 2u);
  EXPECT_EQ(back.component(4), 7u);
  EXPECT_EQ(back.component(0), 0u);
}

TEST(ClockStamp, AddEntryRefusesInlineOverflow) {
  ClockStamp d = ClockStamp::delta(0, 64);
  for (std::uint32_t c = 0; c < ClockStamp::kInlineEntries; ++c) {
    EXPECT_TRUE(d.add_entry(c, c + 1));
  }
  // The send path falls back to a dense stamp instead of spilling: a delta
  // wider than the inline capacity would rarely be smaller than the clock.
  EXPECT_FALSE(d.add_entry(20, 1));
  EXPECT_EQ(d.entries().size(), ClockStamp::kInlineEntries);
}

TEST(ClockStamp, AbsorbOlderUnionsAndSpills) {
  // Two disjoint 14-entry deltas union to 28 entries — the repair path's
  // heap spill, exercised only by fault unions, never by sends.
  ClockStamp newer = ClockStamp::delta(0, 64);
  ClockStamp older = ClockStamp::delta(0, 64);
  for (std::uint32_t c = 0; c < ClockStamp::kInlineEntries; ++c) {
    ASSERT_TRUE(newer.add_entry(c, 100 + c));
    ASSERT_TRUE(older.add_entry(32 + c, 200 + c));
  }
  newer.absorb_older(older);
  ASSERT_TRUE(newer.is_delta());
  EXPECT_EQ(newer.entries().size(), 2u * ClockStamp::kInlineEntries);
  const VectorClock merged = newer.to_clock();
  EXPECT_EQ(merged.component(3), 103u);
  EXPECT_EQ(merged.component(35), 203u);
}

TEST(ClockStamp, AbsorbOlderNewerEntriesWin) {
  ClockStamp newer = ClockStamp::delta(1, 8);
  ClockStamp older = ClockStamp::delta(1, 8);
  ASSERT_TRUE(newer.add_entry(3, 9));
  ASSERT_TRUE(older.add_entry(3, 5));
  ASSERT_TRUE(older.add_entry(6, 2));
  newer.absorb_older(older);
  const VectorClock merged = newer.to_clock();
  EXPECT_EQ(merged.component(3), 9u);  // newer value kept
  EXPECT_EQ(merged.component(6), 2u);  // older-only component adopted
}

TEST(ClockStamp, AbsorbDenseDensifiesToAtSendClock) {
  // Delta over dense: the older full clock overlaid with the delta's
  // entries is exactly the newer message's at-send clock.
  VectorClock base(0, 6);
  for (int i = 0; i < 4; ++i) base.tick();
  ClockStamp newer = ClockStamp::delta(0, 6);
  ASSERT_TRUE(newer.add_entry(0, 5));
  ASSERT_TRUE(newer.add_entry(2, 3));
  newer.absorb_older(ClockStamp::dense(base));
  ASSERT_TRUE(newer.is_dense());
  EXPECT_EQ(newer.dense_clock().component(0), 5u);
  EXPECT_EQ(newer.dense_clock().component(2), 3u);
  EXPECT_EQ(newer.dense_clock().component(1), 0u);
}

TEST(ClockStamp, CopyIsDeepForSpilledEntries) {
  ClockStamp a = ClockStamp::delta(0, 64);
  ClockStamp b = ClockStamp::delta(0, 64);
  for (std::uint32_t c = 0; c < ClockStamp::kInlineEntries; ++c) {
    ASSERT_TRUE(a.add_entry(c, 1));
    ASSERT_TRUE(b.add_entry(20 + c, 2));
  }
  a.absorb_older(b);  // spilled
  ClockStamp copy = a;
  a.absorb_older(ClockStamp::dense(VectorClock(0, 64)));  // densify a
  EXPECT_TRUE(copy.is_delta());
  EXPECT_EQ(copy.entries().size(), 2u * ClockStamp::kInlineEntries);
}

// --- Single-channel fuzz: fold(delta) + tick == witness(full clock) -------

// Simulates one sender/receiver channel the way Network does: the sender's
// clock evolves, each send carries either a delta of the components changed
// since the previous send or a dense fallback, and the receiver folds the
// stamp entrywise and ticks. The dense-reference receiver witnesses the
// sender's full at-send clock. The two must agree componentwise forever.
TEST(ClockStampFuzz, ChannelFoldMatchesDenseWitness) {
  std::mt19937_64 rng(20260809);
  for (const std::size_t n : {2u, 3u, 7u, 14u, 15u, 16u, 33u, 64u, 128u,
                              300u}) {
    VectorClock sender(0, n);
    VectorClock receiver_sparse(1, n);
    VectorClock receiver_dense(1, n);
    std::vector<std::uint64_t> baseline(n, 0);  // sender comps at last send

    for (int round = 0; round < 200; ++round) {
      // Sender activity: fold a few random remote components upward, then
      // tick its own — the same moves a real clock makes.
      const std::size_t changes = rng() % std::min<std::size_t>(n, 6);
      for (std::size_t i = 0; i < changes; ++i) {
        const std::size_t c = rng() % n;
        sender.fold(c, sender.component(c) + 1 + rng() % 3);
      }
      sender.tick();

      // Build the stamp exactly like Network::build_stamp: delta of the
      // changed components, dense on inline overflow or 1-in-8 forcing.
      ClockStamp stamp = ClockStamp::delta(0, n);
      bool fits = (rng() % 8) != 0;
      if (fits) {
        for (std::size_t c = 0; c < n && fits; ++c) {
          if (sender.component(c) != baseline[c]) {
            fits = stamp.add_entry(static_cast<std::uint32_t>(c),
                                   sender.component(c));
          }
        }
      }
      if (!fits) stamp = ClockStamp::dense(sender);
      for (std::size_t c = 0; c < n; ++c) baseline[c] = sender.component(c);

      // Deliver: fold + tick on the sparse side, witness on the reference.
      if (stamp.is_dense()) {
        const VectorClock& full = stamp.dense_clock();
        for (std::size_t c = 0; c < n; ++c) {
          receiver_sparse.fold(c, full.component(c));
        }
      } else {
        for (const ClockStamp::Entry& e : stamp.entries()) {
          receiver_sparse.fold(e.comp, e.value);
        }
      }
      receiver_sparse.tick();
      receiver_dense.witness(sender);

      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(receiver_sparse.component(c), receiver_dense.component(c))
            << "n=" << n << " round=" << round << " comp=" << c;
      }
      EXPECT_TRUE(receiver_sparse.happened_before(sender) ==
                  receiver_dense.happened_before(sender));
    }
  }
}

// Drop repair: folding `survivor.absorb_older(dropped)` must leave the
// receiver exactly where folding dropped-then-survivor would have — the
// union replays the dropped stamp's information at the survivor's delivery.
TEST(ClockStampFuzz, AbsorbOlderEqualsFoldingBothInOrder) {
  std::mt19937_64 rng(424242);
  for (const std::size_t n : {2u, 5u, 14u, 40u, 300u}) {
    for (int round = 0; round < 100; ++round) {
      VectorClock sender(0, n);
      auto advance = [&] {
        const std::size_t changes = rng() % std::min<std::size_t>(n, 5);
        for (std::size_t i = 0; i < changes; ++i) {
          const std::size_t c = rng() % n;
          sender.fold(c, sender.component(c) + 1 + rng() % 4);
        }
        sender.tick();
      };
      auto make_stamp = [&](const std::vector<std::uint64_t>& base) {
        ClockStamp s = ClockStamp::delta(0, n);
        bool fits = (rng() % 6) != 0;
        for (std::size_t c = 0; c < n && fits; ++c) {
          if (sender.component(c) != base[c]) {
            fits =
                s.add_entry(static_cast<std::uint32_t>(c), sender.component(c));
          }
        }
        if (!fits) s = ClockStamp::dense(sender);
        return s;
      };

      std::vector<std::uint64_t> base(n, 0);
      advance();
      ClockStamp older = make_stamp(base);
      for (std::size_t c = 0; c < n; ++c) base[c] = sender.component(c);
      advance();
      ClockStamp newer = make_stamp(base);

      auto fold_into = [n](VectorClock& r, const ClockStamp& s) {
        if (s.is_dense()) {
          for (std::size_t c = 0; c < n; ++c) {
            r.fold(c, s.dense_clock().component(c));
          }
        } else {
          for (const ClockStamp::Entry& e : s.entries()) r.fold(e.comp, e.value);
        }
        r.tick();
      };

      VectorClock both(1, n);
      fold_into(both, older);
      fold_into(both, newer);

      ClockStamp repaired = newer;
      repaired.absorb_older(older);
      VectorClock merged(1, n);
      fold_into(merged, older);  // the dropped message still delivered here:
      fold_into(merged, repaired);
      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(both.component(c), merged.component(c))
            << "n=" << n << " round=" << round;
      }

      // And when the older message is truly gone, the union must carry at
      // least everything the pair carried (it may only over-approximate by
      // the receiver's own already-held components, never under-shoot).
      VectorClock only_union(1, n);
      fold_into(only_union, repaired);
      const VectorClock reference = [&] {
        VectorClock r(1, n);
        fold_into(r, older);
        fold_into(r, newer);
        return r;
      }();
      for (std::size_t c = 0; c < n; ++c) {
        if (c == 1) continue;  // receiver's own component: one fewer tick
        ASSERT_GE(only_union.component(c) + 1, reference.component(c));
      }
    }
  }
}

// --- Dual-harness equivalence: shipping substrate vs reference -----------

void expect_equivalent_runs(const std::string& algo, std::size_t n,
                            net::FaultMix mix, std::size_t burst,
                            std::uint64_t seed, SimTime horizon) {
  const test::RunShape shape{mix, burst, horizon / 4, horizon, horizon};
  core::HarnessConfig config = test::equivalence_config(algo, n, seed);
  const test::ObservedRun shipping = test::observe_run(config, shape);
  config.reference_substrate = true;
  test::expect_equivalent(shipping, test::observe_run(config, shape));
}

// Sparse stamps vs dense wire clocks, full fault matrix. Every fault kind
// exercises a different repair: drop/swap/clear move stamp information
// between queue slots, duplicate/corrupt/spurious test the idempotent-fold
// and fabricated-message (empty stamp) paths.
class SparseVsDenseByFaultKind
    : public ::testing::TestWithParam<
          std::tuple<test::Protocol, net::FaultKind, std::uint64_t>> {};

TEST_P(SparseVsDenseByFaultKind, IdenticalVerdicts) {
  const auto [protocol, kind, seed] = GetParam();
  const std::string algo = test::registry_name(protocol);
  expect_equivalent_runs(algo, 4, net::FaultMix::only(kind), 6, seed, 3000);
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
  // The scale the delta encoding exists for: at N=64 dense stamps copy 64
  // components per message; the sparse run must still be bit-identical.
  expect_equivalent_runs("ricart-agrawala", 64, net::FaultMix::all(), 12, 9,
                         1200);
}

// --- Dirty-row monitor paths vs full checks at N=64, full fault matrix ----

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
}  // namespace graybox
