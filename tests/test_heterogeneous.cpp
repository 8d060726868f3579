// Heterogeneous systems: Lspec is a LOCAL everywhere specification, so the
// graybox theory applies process-by-process — nothing requires every
// process to run the same program. These tests mix RicartAgrawala and
// LamportMe in one system and probe:
//
//   * wrapped mixed systems satisfy TME Spec fault-free and stabilize
//     after arbitrary fault bursts, with the SAME wrapper on every process
//     (the strongest form of Corollary 11's reusability);
//   * an interoperation subtlety the wrapper heals: a Lamport process's
//     queue entry for a Ricart-Agrawala peer is normally retired by that
//     peer's RELEASE broadcast — which RA never sends. A scripted bare run
//     wedges on exactly that stale entry; the wrapper's resend draws a
//     fresh reply that retires it. Protocol-interop gaps are just another
//     mutual inconsistency at the Lspec level.
#include <gtest/gtest.h>

#include <typeinfo>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/harness.hpp"
#include "me/carvalho_roucairol.hpp"
#include "me/lamport.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::core {
namespace {

HarnessConfig mixed_config(std::uint64_t seed, bool wrapped) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = "ricart-agrawala+lamport+ricart-agrawala+lamport";
  config.wrapped = wrapped;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 35;
  config.client.eat_mean = 7;
  config.seed = seed;
  return config;
}

TEST(Heterogeneous, ConfiguredAlgorithmsAreHonoured) {
  SystemHarness h(mixed_config(1, true));
  EXPECT_EQ(typeid(h.process(0)), typeid(me::RicartAgrawala));
  EXPECT_EQ(typeid(h.process(1)), typeid(me::LamportMe));
  EXPECT_EQ(typeid(h.process(2)), typeid(me::RicartAgrawala));
  EXPECT_EQ(typeid(h.process(3)), typeid(me::LamportMe));
}

TEST(Heterogeneous, RecordedSpecRebuildsTheMixedBenchCells) {
  // The spec BENCH_reusability.json's */mixed cells record is itself a
  // config: with those cells' settings it builds RA, Lamport, RA, Lamport
  // and digests to the cells' recorded config.
  HarnessConfig config;
  config.n = 4;
  config.algorithm =
      "ricart-agrawala[monotone_views=0]+lamport[head_only_release=0]+"
      "ricart-agrawala[monotone_views=0]+lamport[head_only_release=0]";
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 35;
  config.client.eat_mean = 7;
  EXPECT_EQ(config_digest(config), "b0135e097dc034e4");
  EXPECT_EQ(algorithm_spec(config), config.algorithm);
  SystemHarness h(config);
  EXPECT_EQ(typeid(h.process(0)), typeid(me::RicartAgrawala));
  EXPECT_EQ(typeid(h.process(1)), typeid(me::LamportMe));
  EXPECT_EQ(typeid(h.process(2)), typeid(me::RicartAgrawala));
  EXPECT_EQ(typeid(h.process(3)), typeid(me::LamportMe));
}

TEST(Heterogeneous, WrappedMixedSystemIsCorrectFaultFree) {
  SystemHarness h(mixed_config(2, true));
  h.start();
  h.run_for(6000);
  h.drain(4000);
  EXPECT_EQ(h.tme_monitors().me1->total_violations(), 0u);
  EXPECT_EQ(h.tme_monitors().me3->total_violations(), 0u);
  EXPECT_EQ(h.tme_monitors().invariant_i->total_violations(), 0u);
  EXPECT_FALSE(h.tme_monitors().me2->starvation_at_end());
  EXPECT_TRUE(h.structural_monitor().clean());
  EXPECT_GT(h.stats().cs_entries, 20u);
  // Every process got service, regardless of its implementation.
  for (ProcessId pid = 0; pid < 4; ++pid)
    EXPECT_GT(h.process(pid).cs_entries(), 0u);
}

TEST(MixedStabilization, RecoversFromMixedFaultBursts) {
  // Seeds 600..607 through the engine: one cell, eight consecutive seeds,
  // trials fanned across two workers.
  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = 12;
  scenario.mix = net::FaultMix::all();
  scenario.observation = 7000;
  scenario.drain = 5000;
  const RepeatedResult result = repeat_fault_experiment(
      mixed_config(600, true), scenario, /*trials=*/8, /*jobs=*/2);
  EXPECT_TRUE(result.all_stabilized())
      << result.stabilized << "/" << result.trials << " stabilized, "
      << result.starved << " starved";
}

// --- Three-way mix with per-process options ------------------------------------

HarnessConfig three_way_config(std::uint64_t seed) {
  // RA, Lamport, and Carvalho-Roucairol in ONE system, with a per-process
  // option (a shortened CR lease) in that process's spec — the registry's
  // per-process resolution path that the uniform tests never touch.
  HarnessConfig config;
  config.n = 4;
  config.algorithm =
      "ricart-agrawala+lamport+carvalho-roucairol[lease=4]+ricart-agrawala";
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 35;
  config.client.eat_mean = 7;
  config.seed = seed;
  return config;
}

TEST(ThreeWayMix, PerProcessOptionsReachTheProcesses) {
  SystemHarness h(three_way_config(1));
  EXPECT_EQ(typeid(h.process(0)), typeid(me::RicartAgrawala));
  EXPECT_EQ(typeid(h.process(1)), typeid(me::LamportMe));
  ASSERT_EQ(typeid(h.process(2)), typeid(me::CarvalhoRoucairol));
  EXPECT_EQ(typeid(h.process(3)), typeid(me::RicartAgrawala));
  const auto& cr = static_cast<const me::CarvalhoRoucairol&>(h.process(2));
  EXPECT_EQ(cr.lease(), 4u);  // the per-process option, not the default 8

  // The canonical spec serializes the heterogeneous system per process.
  EXPECT_EQ(algorithm_spec(h.config()),
            "ricart-agrawala[monotone_views=0]+lamport[head_only_release=0]+"
            "carvalho-roucairol[lease=4]+ricart-agrawala[monotone_views=0]");
}

TEST(ThreeWayMix, WrappedSystemIsCorrectFaultFree) {
  // A CR process in the mix drops view_entry_truth, so the battery swaps
  // in the mutual-belief monitor — and the mixed system still serves
  // everyone cleanly.
  SystemHarness h(three_way_config(2));
  EXPECT_NE(h.tme_monitors().mutual_belief, nullptr);
  h.start();
  h.run_for(6000);
  h.drain(4000);
  EXPECT_EQ(h.monitors().total_violations(), 0u);
  EXPECT_FALSE(h.tme_monitors().me2->starvation_at_end());
  for (ProcessId pid = 0; pid < 4; ++pid)
    EXPECT_GT(h.process(pid).cs_entries(), 0u);
}

TEST(ThreeWayMix, StabilizesFromMixedFaultBursts) {
  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = 12;
  scenario.mix = net::FaultMix::all();
  scenario.observation = 7000;
  scenario.drain = 5000;
  const RepeatedResult result = repeat_fault_experiment(
      three_way_config(700), scenario, /*trials=*/8, /*jobs=*/2);
  EXPECT_TRUE(result.all_stabilized())
      << result.stabilized << "/" << result.trials << " stabilized, "
      << result.starved << " starved";
}

// --- The interop wedge ---------------------------------------------------------

// The two programs advertise "my request is over" differently: RA answers
// its deferred peers with a REPLY; Lamport broadcasts a RELEASE. An RA
// process ignores RELEASEs, so when it loses a contention round to a
// Lamport peer, nothing the bare protocol sends will ever refresh its view
// of that peer: it waits forever.
//
// (The mirrored wedge — a Lamport process holding a stale queue entry for
// an RA peer — is already healed by this library's stale-entry retirement,
// exercised in ablation A2: the ordinary REPLY to the Lamport process's
// own next request carries fresh evidence. Only the RA side needs the
// wrapper.)
//
// Script: Lamport process 1 wins the CS; RA process 0 requests while 1 is
// eating; 1 releases with a RELEASE broadcast that 0 ignores.
void build_interop_wedge(SystemHarness& h) {
  h.process(1).request_cs();
  while (!h.process(1).eating()) h.run_for(2);
  h.process(0).request_cs();
  h.run_for(10);  // 0's request delivered; 1's reply carries its old REQ
  // 1's client releases it; the RELEASE broadcast means nothing to 0.
  while (!h.process(1).thinking()) h.run_for(2);
  h.run_for(30);
}

TEST(Heterogeneous, BareInteropWedgesOnIgnoredRelease) {
  HarnessConfig config = mixed_config(3, false);
  config.client.wants_cs = false;  // scripted only
  SystemHarness h(config);
  h.start();
  build_interop_wedge(h);
  h.run_for(50000);
  // Process 0 still believes process 1's old request is outstanding.
  EXPECT_TRUE(h.process(0).hungry());
  EXPECT_EQ(h.process(0).cs_entries(), 0u);
}

TEST(Heterogeneous, WrapperHealsTheInteropWedge) {
  HarnessConfig config = mixed_config(3, true);
  config.client.wants_cs = false;
  SystemHarness h(config);
  h.start();
  build_interop_wedge(h);
  h.run_for(200);
  // The wrapper resent REQ0 to the Lamport peer, whose REPLY carries its
  // current (post-release) REQ: the view refreshes and 0 enters.
  EXPECT_EQ(h.process(0).cs_entries(), 1u);
}

TEST(Heterogeneous, BareMixedSystemsStarveOnceTrafficStops) {
  // The gap is symmetric: an RA process never reads Lamport's RELEASE, so
  // its view of a Lamport peer only refreshes on that peer's next REQUEST
  // or REPLY. While everyone keeps requesting, fresh traffic papers over
  // both wedges; the moment clients stop (the drain), whoever is stuck
  // behind stale information starves. This seed deterministically does.
  SystemHarness h(mixed_config(4, false));
  h.start();
  h.run_for(8000);
  h.drain(5000);
  EXPECT_TRUE(h.tme_monitors().me2->starvation_at_end());

  // The identical run, wrapped: live. (The wrapper resend draws a fresh
  // REPLY carrying the peer's current REQ, which both programs accept.)
  SystemHarness wrapped(mixed_config(4, true));
  wrapped.start();
  wrapped.run_for(8000);
  wrapped.drain(5000);
  EXPECT_FALSE(wrapped.tme_monitors().me2->starvation_at_end());
}

}  // namespace
}  // namespace graybox::core
