// Causal provenance: fault taint propagation, blast-radius attribution,
// the happened-before DAG with obs::why(), and the determinism guarantee
// that the blast-radius rollup in engine artifacts is byte-identical
// across --jobs values.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "me/ricart_agrawala.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "obs/causal_dag.hpp"
#include "obs/event_bus.hpp"
#include "obs/provenance.hpp"
#include "sim/scheduler.hpp"
#include "wrapper/graybox_wrapper.hpp"

namespace graybox {
namespace {

using obs::Event;
using obs::EventKind;
using obs::ProvenanceId;
using obs::ProvenanceTracker;
using obs::TaintSet;

// --- TaintSet ----------------------------------------------------------------

TEST(TaintSet, AddDeduplicatesAndRejectsZero) {
  TaintSet t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.add(obs::kNoProvenance));
  EXPECT_TRUE(t.add(3));
  EXPECT_FALSE(t.add(3));  // already present
  EXPECT_TRUE(t.add(7));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.contains(3));
  EXPECT_TRUE(t.contains(7));
  EXPECT_FALSE(t.contains(5));
  EXPECT_FALSE(t.overflowed());
}

TEST(TaintSet, SaturatesKeepingOldestAndFlagsDrop) {
  TaintSet t;
  for (ProvenanceId id = 1; id <= TaintSet::kCapacity; ++id) {
    EXPECT_TRUE(t.add(id));
  }
  EXPECT_FALSE(t.add(99));  // full: the newcomer is dropped, not an elder
  EXPECT_EQ(t.size(), TaintSet::kCapacity);
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.contains(99));
  EXPECT_TRUE(t.overflowed());
}

TEST(TaintSet, MergeUnionsAndClearResets) {
  TaintSet a, b;
  a.add(1);
  b.add(1);
  b.add(2);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.contains(2));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.overflowed());
}

TEST(TaintSet, DropCounterCountsEachRefusedIdAndSaturates) {
  TaintSet t;
  for (ProvenanceId id = 1; id <= TaintSet::kCapacity; ++id) t.add(id);
  t.add(100);
  t.add(101);
  t.add(101);  // not a drop: already-refused ids are still "not present"
  EXPECT_EQ(t.dropped, 3u);
  t.add(1);  // not a drop either: it IS present
  EXPECT_EQ(t.dropped, 3u);
  for (int i = 0; i < 300; ++i) t.add(200 + static_cast<ProvenanceId>(i));
  EXPECT_EQ(t.dropped, 0xffu);  // saturates instead of wrapping
  EXPECT_EQ(t.size(), TaintSet::kCapacity);
  EXPECT_TRUE(t.contains(1));  // the oldest ids survived all of it
}

TEST(TaintSet, MergeAccumulatesUpstreamDrops) {
  TaintSet a, b;
  for (ProvenanceId id = 1; id <= TaintSet::kCapacity + 2; ++id) a.add(id);
  for (ProvenanceId id = 10; id <= 10 + TaintSet::kCapacity; ++id) b.add(id);
  EXPECT_EQ(a.dropped, 2u);
  EXPECT_EQ(b.dropped, 1u);
  // merge drops b's four ids (a is full) AND folds b's own drop count in:
  // 2 (a's) + 4 (refused here) + 1 (b's upstream) — additive, not OR'd.
  a.merge(b);
  EXPECT_EQ(a.dropped, 7u);
}

// --- ProvenanceTracker -------------------------------------------------------

TEST(ProvenanceTracker, TaintOverflowCounterMakesUnderAttributionVisible) {
  ProvenanceTracker prov(2);
  ProvenanceId ids[6];
  for (int i = 0; i < 6; ++i)
    ids[i] = prov.mint(/*code=*/0, kNoProcess, /*now=*/10 + i);
  for (int i = 0; i < 6; ++i) prov.taint_process(0, ids[i]);
  // Keep-oldest saturation: ids 1..4 stick, 5 and 6 are dropped and the
  // run-wide counter records exactly those two under-attributions.
  const TaintSet& t = prov.process_taint(0);
  EXPECT_EQ(t.size(), TaintSet::kCapacity);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(t.contains(ids[i]));
  EXPECT_FALSE(t.contains(ids[4]));
  EXPECT_FALSE(t.contains(ids[5]));
  EXPECT_EQ(prov.taint_overflows(), 2u);
  // Re-offering a dropped id counts again (it is still being refused),
  // while re-offering a held id does not.
  prov.taint_process(0, ids[5]);
  prov.taint_process(0, ids[0]);
  EXPECT_EQ(prov.taint_overflows(), 3u);
  // A different process has its own headroom: no spurious overflow.
  prov.taint_process(1, ids[5]);
  EXPECT_EQ(prov.taint_overflows(), 3u);
}


TEST(ProvenanceTracker, MintsSequentialIdsAndRecordsOrigin) {
  ProvenanceTracker prov(4);
  const ProvenanceId a = prov.mint(/*code=*/5, /*origin=*/2, /*now=*/100);
  const ProvenanceId b = prov.mint(/*code=*/0, kNoProcess, /*now=*/150);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_EQ(prov.minted(), 2u);
  EXPECT_EQ(prov.blast()[0].code, 5u);
  EXPECT_EQ(prov.blast()[0].origin, 2u);
  EXPECT_EQ(prov.blast()[0].injected_at, 100u);
  EXPECT_EQ(prov.blast()[1].origin, kNoProcess);
}

TEST(ProvenanceTracker, TaintCountsDistinctProcessesNotReinfections) {
  ProvenanceTracker prov(4);
  const ProvenanceId id = prov.mint(5, 0, 10);
  prov.taint_process(0, id);
  prov.taint_process(1, id);
  prov.taint_process(1, id);  // already tainted: no new spread
  prov.clear_process(1);
  prov.taint_process(1, id);  // re-infection: reach is unchanged
  const obs::BlastRadius& b = prov.blast()[0];
  EXPECT_EQ(b.processes_tainted, 2u);
  // Out-of-range pid and unknown id are ignored, not UB.
  prov.taint_process(99, id);
  prov.taint_process(0, 42);
  EXPECT_EQ(prov.blast()[0].processes_tainted, 2u);
}

TEST(ProvenanceTracker, BlastRadiusCountsPidsAboveSixtyFour) {
  // Reach is one bit per (fault, pid), so no pid shares a bit with another
  // and the count does not saturate at 64.
  ProvenanceTracker prov(200);
  const ProvenanceId id = prov.mint(5, 0, 10);
  for (ProcessId pid = 0; pid < 200; ++pid) prov.taint_process(pid, id);
  EXPECT_EQ(prov.blast()[0].processes_tainted, 200u);
}

TEST(ProvenanceTracker, AttributionUnionsTaintsAndFallsBackToLatestFault) {
  ProvenanceTracker prov(3);
  const ProvenanceId a = prov.mint(5, 0, 10);
  const ProvenanceId b = prov.mint(2, kNoProcess, 20);
  prov.taint_process(0, a);
  prov.taint_process(2, b);

  const TaintSet attributed = prov.attribute_violation(/*now=*/30);
  EXPECT_TRUE(attributed.contains(a));
  EXPECT_TRUE(attributed.contains(b));
  EXPECT_EQ(prov.blast()[0].violations_attributed, 1u);
  EXPECT_EQ(prov.blast()[1].violations_attributed, 1u);
  EXPECT_EQ(prov.blast()[0].last_violation, 30u);
  EXPECT_EQ(prov.blast()[0].containment(), 20u);  // 30 - 10

  // With every process clean (e.g. the corruption lives in a channel the
  // taint sets cannot see anymore), the violation still gets a root cause:
  // the most recently minted fault.
  prov.clear_process(0);
  prov.clear_process(2);
  const TaintSet fallback = prov.attribute_violation(/*now=*/50);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], b);
  EXPECT_EQ(prov.blast()[1].violations_attributed, 2u);
  EXPECT_EQ(prov.blast()[1].last_violation, 50u);
}

TEST(ProvenanceTracker, CachedAttributionEqualsTheFoldOverEverySet) {
  // The tracker caches the attribution union and refolds it only after some
  // process's set changes. Here a random sequence of mints, taints, merges,
  // clears and attributions holds every attribution to the fold itself,
  // recomputed from a model of the n sets in pid order (ids, their order,
  // count and drop count), and every BlastRadius row to the model's at the
  // end. n = 300 puts pids above 64 and above 256.
  constexpr std::size_t kN = 300;
  const ProcessId kHot[] = {0, 1, 63, 64, 65, 200, 255, 256, 257, 299};
  ProvenanceTracker prov(kN);
  std::vector<TaintSet> model(kN);
  std::vector<obs::BlastRadius> rows;
  std::vector<std::vector<char>> reached;  // [id - 1][pid]
  const auto model_taint = [&](ProcessId pid, ProvenanceId id) {
    if (id == obs::kNoProvenance || id > rows.size()) return;
    if (model[pid].add(id) && !reached[id - 1][pid]) {
      reached[id - 1][pid] = 1;
      ++rows[id - 1].processes_tainted;
    }
  };
  const auto same = [](const TaintSet& a, const TaintSet& b) {
    if (a.count != b.count || a.dropped != b.dropped) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) return false;
    return true;
  };

  Rng rng(25);
  std::size_t attributions = 0, saturated = 0, unchanged = 0;
  for (SimTime now = 1; now <= 2000; ++now) {
    if (now % 250 == 0) {
      // A round of corrections clears every process, so the union's drop
      // count (saturating at 255) starts low again.
      for (ProcessId pid = 0; pid < kN; ++pid) {
        prov.clear_process(pid);
        model[pid].clear();
      }
    }
    // Most steps hit a few hot pids, so their sets fill past capacity.
    const ProcessId pid = rng.chance(0.8)
                              ? kHot[rng.index(std::size(kHot))]
                              : static_cast<ProcessId>(rng.index(kN));
    // An id in [1, minted + 1]: the one past the end is ignored.
    const auto any_id = [&] {
      return static_cast<ProvenanceId>(rng.uniform(1, rows.size() + 1));
    };
    const TaintSet before = model[pid];
    const std::size_t pick = rng.index(100);
    if (pick < 6 || rows.empty()) {
      const ProcessId origin = rng.chance(0.5) ? pid : kNoProcess;
      const ProvenanceId id = prov.mint(3, origin, now);
      obs::BlastRadius row;
      row.id = id;
      row.code = 3;
      row.origin = origin;
      row.injected_at = now;
      rows.push_back(row);
      reached.emplace_back(kN, 0);
      continue;
    } else if (pick < 30) {
      const ProvenanceId id = any_id();
      prov.taint_process(pid, id);
      model_taint(pid, id);
    } else if (pick < 60) {
      TaintSet taint;
      const std::size_t ids = rng.uniform(0, TaintSet::kCapacity);
      for (std::size_t i = 0; i < ids; ++i) taint.add(any_id());
      // Mostly none, sometimes a few, now and then any number of drops.
      const double d = rng.uniform01();
      taint.dropped = static_cast<std::uint8_t>(
          d < 0.75 ? 0 : rng.uniform(1, d < 0.95 ? 7 : 255));
      prov.merge_process(pid, taint);
      for (std::size_t i = 0; i < taint.size(); ++i)
        model_taint(pid, taint[i]);
      model[pid].note_dropped(taint.dropped);
    } else if (pick < 72) {
      prov.clear_process(pid);
      model[pid].clear();
    } else {
      TaintSet expected;
      std::set<ProvenanceId> live;
      for (const TaintSet& t : model) {
        expected.merge(t);
        for (std::size_t i = 0; i < t.size(); ++i) live.insert(t[i]);
      }
      if (live.size() > TaintSet::kCapacity) ++saturated;
      if (expected.empty())
        expected.add(static_cast<ProvenanceId>(rows.size()));
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ++rows[expected[i] - 1].violations_attributed;
        rows[expected[i] - 1].last_violation = now;
      }
      const TaintSet got = prov.attribute_violation(now);
      ++attributions;
      ASSERT_TRUE(same(got, expected))
          << "attribution at t=" << now << ": " << int{got.count} << " ids, "
          << int{got.dropped} << " dropped; the fold has "
          << int{expected.count} << " ids, " << int{expected.dropped}
          << " dropped";
      continue;
    }
    ASSERT_TRUE(same(prov.process_taint(pid), model[pid])) << "t=" << now;
    if (same(before, model[pid])) ++unchanged;
  }
  // The run met what the cache must survive: more live ids than a set
  // holds (keep-oldest saturation) and mutator calls that left their set
  // as it was.
  EXPECT_GT(attributions, 400u);
  EXPECT_GT(saturated, 100u);
  EXPECT_GT(unchanged, 100u);

  ASSERT_EQ(prov.blast().size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const obs::BlastRadius& got = prov.blast()[i];
    const obs::BlastRadius& want = rows[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.origin, want.origin);
    EXPECT_EQ(got.injected_at, want.injected_at);
    EXPECT_EQ(got.processes_tainted, want.processes_tainted) << "id " << i + 1;
    EXPECT_EQ(got.messages_tainted, want.messages_tainted);
    EXPECT_EQ(got.violations_attributed, want.violations_attributed)
        << "id " << i + 1;
    EXPECT_EQ(got.last_violation, want.last_violation) << "id " << i + 1;
  }
}

TEST(ProvenanceTracker, MessageTaintTally) {
  ProvenanceTracker prov(2);
  const ProvenanceId id = prov.mint(2, kNoProcess, 5);
  TaintSet t;
  t.add(id);
  prov.note_message_taint(t);
  prov.note_message_taint(t);
  EXPECT_EQ(prov.blast()[0].messages_tainted, 2u);
}

// --- Taint clearing at wrapper corrections (hand-wired) ----------------------

TEST(WrapperProvenance, CorrectionClearsTaintAndSubsequentSendsAreClean) {
  sim::Scheduler sched;
  obs::EventBus bus(sched, 256);
  net::Network net(sched, 2, net::DelayModel::fixed(1), Rng(1));
  net.set_event_bus(&bus);
  ProvenanceTracker prov(2);
  net.set_provenance(&prov);
  me::RicartAgrawala p0(0, net), p1(1, net);
  net.set_handler(0, [&](const net::Message& m) { p0.on_message(m); });
  net.set_handler(1, [&](const net::Message& m) { p1.on_message(m); });

  // A process-corrupt fault taints p0; its protocol sends inherit the
  // taint on the wire.
  const ProvenanceId id = prov.mint(5, 0, 0);
  prov.taint_process(0, id);
  p0.request_cs();
  ASSERT_GT(bus.size(), 0u);
  const Event& request = bus.event(bus.size() - 1);
  ASSERT_EQ(request.kind, EventKind::kSend);
  EXPECT_TRUE(request.taint.contains(id));
  EXPECT_EQ(prov.blast()[0].messages_tainted, 1u);

  // The wrapper correction: the resend still carries the taint (it is the
  // last trace of the corruption), then the process is clean.
  wrapper::WrapperConfig wc;
  wc.resend_period = 10;
  wc.unrefined_send_all = true;  // force a resend regardless of views
  wrapper::GrayboxWrapper w(sched, net, p0, wc);
  w.set_event_bus(&bus);
  w.set_provenance(&prov);
  w.evaluate();
  ASSERT_GT(w.resends(), 0u);
  bool saw_tainted_correction = false;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const Event& e = bus.event(i);
    if (e.kind == EventKind::kWrapperCorrection) {
      saw_tainted_correction = e.taint.contains(id);
    }
  }
  EXPECT_TRUE(saw_tainted_correction);
  EXPECT_TRUE(prov.process_taint(0).empty());

  // Regression pin: after the correction, nothing p0 sends carries stale
  // provenance — neither the wrapper's own resends nor protocol traffic.
  const std::size_t mark = bus.size();
  w.evaluate();
  while (sched.step()) {
  }
  ASSERT_GT(bus.size(), mark);
  for (std::size_t i = mark; i < bus.size(); ++i) {
    const Event& e = bus.event(i);
    if (e.kind == EventKind::kSend && e.pid == 0) {
      EXPECT_TRUE(e.taint.empty()) << "stale taint on send #" << i;
    }
  }
}

// --- Harness integration: attribution and why() ------------------------------

core::HarnessConfig prov_config(std::uint64_t seed) {
  core::HarnessConfig config;
  config.n = 4;
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = seed;
  config.provenance = true;
  return config;
}

void run_fault_load(core::SystemHarness& h) {
  h.start();
  h.run_for(400);
  h.faults().burst(6, net::FaultMix::all());
  h.run_for(2500);
  h.drain(2000);
}

TEST(HarnessProvenance, EveryViolationAttributedAndTalliesConsistent) {
  core::HarnessConfig config = prov_config(42);
  config.trace_capacity = 1u << 20;
  config.fault_process.corrupt_mean = 250;
  config.fault_process.process_corrupt_mean = 300;
  config.fault_process.spurious_mean = 250;
  config.fault_process.start = 400;
  config.fault_process.end = 2900;
  core::SystemHarness h(config);
  run_fault_load(h);

  // Every recorded violation names at least one root-cause fault.
  std::size_t violations = 0;
  const obs::EventBus& bus = h.events();
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const Event& e = bus.event(i);
    if (e.kind == EventKind::kMonitorViolation) {
      ++violations;
      EXPECT_FALSE(e.taint.empty()) << "unattributed violation at #" << i;
    }
  }
  ASSERT_GT(violations, 0u) << "seed produced no violations; pick another";

  // The rollup agrees with the authoritative component state.
  const core::RunStats stats = h.stats();
  ASSERT_NE(h.provenance(), nullptr);
  EXPECT_EQ(stats.provenance_faults, stats.faults_injected);
  EXPECT_GE(stats.violations_attributed, violations);
  EXPECT_GT(stats.messages_tainted, 0u);
  EXPECT_GT(stats.processes_tainted, 0u);
  // Containment is measured per fault: injection -> last attributed
  // violation, never negative.
  for (const obs::BlastRadius& b : h.provenance()->blast()) {
    if (b.last_violation != kNever) {
      EXPECT_GE(b.last_violation, b.injected_at);
    }
    EXPECT_EQ(b.containment(),
              b.last_violation == kNever ? 0 : b.last_violation - b.injected_at);
  }

  // Provenance off (the default): same machinery reports zeros, and the
  // hot paths never touch the tracker.
  core::HarnessConfig off = prov_config(42);
  off.provenance = false;
  core::SystemHarness h2(off);
  run_fault_load(h2);
  EXPECT_EQ(h2.provenance(), nullptr);
  EXPECT_EQ(h2.stats().provenance_faults, 0u);
}

TEST(HarnessProvenance, WhyReproducesChainBackToInjection) {
  core::HarnessConfig config = prov_config(7);
  config.trace_capacity = 1u << 20;
  config.fault_process.corrupt_mean = 250;
  config.fault_process.process_corrupt_mean = 300;
  config.fault_process.start = 400;
  config.fault_process.end = 2900;
  core::SystemHarness h(config);
  run_fault_load(h);

  const obs::EventBus& bus = h.events();
  std::size_t target = bus.size();
  for (std::size_t i = bus.size(); i > 0; --i) {
    if (bus.event(i - 1).kind == EventKind::kMonitorViolation) {
      target = i - 1;
      break;
    }
  }
  ASSERT_LT(target, bus.size()) << "seed produced no violations; pick another";

  const std::vector<std::size_t> chain = obs::why(bus, target);
  ASSERT_FALSE(chain.empty());
  // Injection-first, queried event last, happened-before order throughout.
  EXPECT_EQ(bus.event(chain.front()).kind, EventKind::kFaultInjected);
  EXPECT_EQ(chain.back(), target);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i - 1], chain[i]);
    EXPECT_LE(bus.event(chain[i - 1]).time, bus.event(chain[i]).time);
  }
  // The chain's root shares a taint id with the violation it explains
  // (unless the violation itself carries no taint, which the attribution
  // fallback prevents).
  const Event& root = bus.event(chain.front());
  const Event& queried = bus.event(target);
  bool shared = false;
  for (std::size_t i = 0; i < root.taint.size(); ++i) {
    shared = shared || queried.taint.contains(root.taint[i]);
  }
  EXPECT_TRUE(shared);

  // Out of range: empty, not UB.
  EXPECT_TRUE(obs::why(bus, bus.size()).empty());
}

TEST(CausalDag, ProgramOrderAndMessageEdges) {
  core::HarnessConfig config = prov_config(3);
  config.trace_capacity = 1u << 20;
  core::SystemHarness h(config);
  h.start();
  h.run_for(600);

  const obs::EventBus& bus = h.events();
  const obs::CausalDag dag = obs::CausalDag::build(bus);
  ASSERT_EQ(dag.size(), bus.size());
  // Every deliver is preceded by its send (uid pairing), and every
  // predecessor respects the recording order.
  std::size_t paired = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    for (const std::uint32_t p : dag.preds(i)) {
      EXPECT_LT(p, i);
    }
    if (bus.event(i).kind != EventKind::kDeliver) continue;
    for (const std::uint32_t p : dag.preds(i)) {
      const Event& pe = bus.event(p);
      if (pe.kind == EventKind::kSend && pe.uid == bus.event(i).uid) ++paired;
    }
  }
  EXPECT_GT(paired, 0u);
}

// --- Engine artifacts: blast-radius rollup byte-identical across jobs --------

TEST(EngineProvenance, BlastRadiusJsonByteIdenticalAcrossJobs) {
  core::FaultScenario scenario;
  scenario.warmup = 300;
  scenario.burst = 6;
  scenario.observation = 2500;
  scenario.drain = 2000;
  core::SpecGrid grid;
  core::HarnessConfig config = prov_config(1234);
  config.provenance = false;  // the engine forces it per trial
  grid.add("prov_cell", config, scenario, 6);

  const core::GridResult serial =
      core::ExperimentEngine(core::EngineOptions{.jobs = 1}).run(grid);
  const core::GridResult parallel =
      core::ExperimentEngine(core::EngineOptions{.jobs = 8}).run(grid);

  const std::string full = core::grid_to_json("prov_smoke", serial).dump();
  EXPECT_NE(full.find("\"provenance.faults_minted\""), std::string::npos);
  EXPECT_NE(full.find("\"provenance.violations_attributed\""),
            std::string::npos);
  EXPECT_NE(full.find("\"provenance.containment_ticks\""), std::string::npos);

  const std::string a = report::strip_volatile_lines(full);
  const std::string b = report::strip_volatile_lines(
      core::grid_to_json("prov_smoke", parallel).dump());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"provenance.faults_minted\""), std::string::npos);
}

}  // namespace
}  // namespace graybox
