// The sustained fault-load subsystem: FaultProcess stream determinism,
// crash/recovery and partition/heal lifecycles through the injector, their
// metrics (their timeline parity is in test_obs.cpp), and the engine-level
// guarantee that fault-load experiments stay byte-identical across --jobs
// values.
#include <gtest/gtest.h>

#include <vector>

#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_process.hpp"
#include "obs/provenance.hpp"

namespace graybox::core {
namespace {

HarnessConfig load_config(std::uint64_t seed) {
  HarnessConfig config;
  config.n = 4;
  config.seed = seed;
  config.wrapper.resend_period = 20;
  return config;
}

net::FaultProcessConfig modest_load() {
  net::FaultProcessConfig fp;
  fp.drop_mean = 150;
  fp.duplicate_mean = 300;
  fp.corrupt_mean = 300;
  fp.spurious_mean = 250;
  fp.process_corrupt_mean = 400;
  fp.crash_mean = 1200;
  fp.downtime_mean = 150;
  fp.partition_mean = 1500;
  fp.partition_hold_mean = 120;
  return fp;
}

// --- FaultProcess determinism ----------------------------------------------

/// The applied fault schedule of a 6000-tick loaded run: one provenance
/// row per applied fault, in application order (time, code, target pid).
std::vector<obs::BlastRadius> applied_schedule(std::uint64_t seed) {
  HarnessConfig config = load_config(seed);
  config.fault_process = modest_load();
  config.provenance = true;
  SystemHarness h(config);
  h.start();
  h.run_for(6000);
  return h.provenance()->blast();
}

TEST(FaultProcess, SameSeedSameSchedule) {
  // The applied fault schedule is a pure function of the seed: two
  // identical systems produce entry-for-entry identical schedules.
  const std::vector<obs::BlastRadius> schedules[2] = {applied_schedule(42),
                                                      applied_schedule(42)};
  ASSERT_FALSE(schedules[0].empty());
  ASSERT_EQ(schedules[0].size(), schedules[1].size());
  for (std::size_t i = 0; i < schedules[0].size(); ++i) {
    EXPECT_EQ(schedules[0][i].injected_at, schedules[1][i].injected_at) << i;
    EXPECT_EQ(schedules[0][i].code, schedules[1][i].code) << i;
    EXPECT_EQ(schedules[0][i].origin, schedules[1][i].origin) << i;
  }
}

TEST(FaultProcess, DifferentSeedsDifferentSchedules) {
  const std::vector<obs::BlastRadius> schedules[2] = {applied_schedule(42),
                                                      applied_schedule(43)};
  ASSERT_FALSE(schedules[0].empty());
  bool differ = schedules[0].size() != schedules[1].size();
  for (std::size_t i = 0; !differ && i < schedules[0].size(); ++i) {
    differ = schedules[0][i].injected_at != schedules[1][i].injected_at ||
             schedules[0][i].code != schedules[1][i].code;
  }
  EXPECT_TRUE(differ);
}

TEST(FaultProcess, DisabledByDefaultDrawsNothing) {
  // All-zero rates: the subsystem arms nothing and perturbs nothing —
  // a run with the default config matches a run from before it existed.
  HarnessConfig config = load_config(7);
  SystemHarness h(config);
  h.start();
  h.run_for(3000);
  EXPECT_FALSE(h.fault_load().running());
  EXPECT_EQ(h.stats().faults_injected, 0u);
}

TEST(FaultProcess, CrashStreamReachesPidsAboveSixtyThree) {
  // Crash targets are drawn from all n pids, so with room for everyone to
  // be down and nobody recovering, every pid eventually goes down — also
  // the ones past a 64-bit word.
  constexpr std::size_t kN = 128;
  sim::Scheduler sched;
  net::Network net(sched, kN, net::DelayModel::fixed(1), Rng(1));
  net::FaultInjector injector(sched, net, Rng(2), [](ProcessId, Rng&) {});
  net::FaultProcessConfig fp;
  fp.crash_mean = 2;
  fp.max_down = kN;
  fp.downtime_mean = 1e9;
  net::FaultProcess load(sched, injector, net, fp, Rng(3));
  load.start();
  sched.run_until(20000);
  EXPECT_EQ(net.crashed_count(), kN);
  EXPECT_EQ(injector.count(net::FaultKind::kProcessCrash), kN);
}

TEST(FaultProcess, StreamsStopAtEnd) {
  HarnessConfig config = load_config(9);
  config.fault_process.drop_mean = 50;
  config.fault_process.spurious_mean = 60;
  config.fault_process.end = 1000;
  SystemHarness h(config);
  h.start();
  h.run_for(5000);
  ASSERT_GT(h.faults().total_injected(), 0u);
  EXPECT_LT(h.faults().last_fault_time(), 1000u);
}

// --- Crash / recovery -------------------------------------------------------

TEST(HarnessLifecycle, CrashSwallowsDeliveriesUntilRecovery) {
  HarnessConfig config = load_config(11);
  SystemHarness h(config);
  h.start();
  h.run_for(500);
  const net::TargetedFault crash{.code = net::FaultKind::kProcessCrash,
                                 .a = 1};
  const net::TargetedFault recover{.code = net::FaultKind::kProcessRecover,
                                   .a = 1};
  ASSERT_TRUE(h.faults().inject_targeted(crash));
  EXPECT_TRUE(h.network().crashed(1));
  // Already down: not a second fault.
  EXPECT_FALSE(h.faults().inject_targeted(crash));
  const std::uint64_t entries_at_crash = h.process(1).cs_entries();
  h.run_for(1500);
  // The dead process took no steps; traffic to it was swallowed.
  EXPECT_EQ(h.process(1).cs_entries(), entries_at_crash);
  const RunStats mid = h.stats();
  EXPECT_EQ(mid.crashes, 1u);
  EXPECT_EQ(mid.recoveries, 0u);
  EXPECT_GT(mid.deliveries_to_crashed, 0u);

  ASSERT_TRUE(h.faults().inject_targeted(recover));
  EXPECT_FALSE(h.network().crashed(1));
  EXPECT_FALSE(h.faults().inject_targeted(recover));
  h.run_for(4000);
  h.drain(3000);
  const RunStats end = h.stats();
  EXPECT_EQ(end.recoveries, 1u);
  // Crash/recovery are faults; stabilization is judged from the last one.
  const StabilizationReport report = h.stabilization_report();
  EXPECT_TRUE(report.faults_injected);
  // The wrapped system must come back: the recovered process re-entered
  // an improperly initialized state and still made progress afterwards.
  EXPECT_TRUE(report.stabilized);
  EXPECT_GT(h.process(1).cs_entries(), entries_at_crash);
}

TEST(HarnessLifecycle, PartitionBlocksCrossTrafficUntilHealed) {
  HarnessConfig config = load_config(13);
  SystemHarness h(config);
  h.start();
  h.run_for(500);
  auto inject = [&h](net::FaultKind code, std::uint64_t mask = 0) {
    return h.faults().inject_targeted(
        net::TargetedFault{.code = code, .mask = mask});
  };
  // A mask must cut the 4 processes both ways.
  EXPECT_FALSE(inject(net::FaultKind::kPartition, 0b1111));
  EXPECT_FALSE(inject(net::FaultKind::kPartition, 0b110000));
  ASSERT_TRUE(inject(net::FaultKind::kPartition, 0b0001));  // isolate 0
  EXPECT_EQ(h.network().partition_mask(), 0b0001u);
  // One partition at a time.
  EXPECT_FALSE(inject(net::FaultKind::kPartition, 0b0011));
  h.run_for(1000);
  const RunStats mid = h.stats();
  EXPECT_EQ(mid.partitions, 1u);
  EXPECT_GT(mid.dropped_by_partition, 0u);
  ASSERT_TRUE(inject(net::FaultKind::kPartitionHeal));
  EXPECT_EQ(h.network().partition_mask(), 0u);
  EXPECT_FALSE(inject(net::FaultKind::kPartitionHeal));
  h.run_for(4000);
  h.drain(3000);
  const RunStats end = h.stats();
  EXPECT_EQ(end.partition_heals, 1u);
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

// --- Observability ----------------------------------------------------------

TEST(HarnessLifecycle, MetricsCarryAvailabilityInstruments) {
  HarnessConfig config = load_config(19);
  config.collect_metrics = true;
  config.fault_process = modest_load();
  SystemHarness h(config);
  h.start();
  h.run_for(6000);
  h.drain(3000);
  const RunStats stats = h.stats();
  bool saw_rate = false, saw_avail = false, saw_reconverge = false;
  for (const obs::MetricSample& s : stats.metrics) {
    saw_rate = saw_rate || s.name == "fault_rate_per_kilotick";
    saw_avail = saw_avail || s.name == "availability_ppm";
    saw_reconverge = saw_reconverge || s.name == "reconverge_ticks";
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_avail);
  EXPECT_TRUE(saw_reconverge);
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.reconverge_windows, 0u);
}

// --- Liveness under sustained load ------------------------------------------

TEST(SustainedLoad, WrappedSystemStaysLiveUnderModestContinuousFaults) {
  // The regime the ROADMAP cares about: faults keep arriving, and the
  // wrapped system keeps serving the critical section between them.
  HarnessConfig config = load_config(23);
  config.fault_process = modest_load();
  config.fault_process.end = 6000;  // quiesce before the drain
  SystemHarness h(config);
  h.start();
  h.run_for(8000);
  h.drain(4000);
  const RunStats stats = h.stats();
  EXPECT_GT(stats.faults_injected, 10u);
  EXPECT_GT(stats.cs_entries, 0u);
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

// --- Engine determinism ------------------------------------------------------

TEST(SustainedLoad, EngineJsonByteIdenticalAcrossJobs) {
  // Fault-load cells ride the experiment engine like any other: the whole
  // artifact is byte-identical between --jobs 1 and --jobs 8 (modulo
  // wall-clock lines).
  auto grid = [] {
    SpecGrid g;
    for (const std::uint64_t rate : {0ull, 200ull}) {
      HarnessConfig config;
      config.n = 4;
      config.seed = 7;
      if (rate > 0) {
        config.fault_process.drop_mean = static_cast<double>(rate);
        config.fault_process.spurious_mean = static_cast<double>(rate);
        config.fault_process.crash_mean = static_cast<double>(rate) * 10;
        config.fault_process.downtime_mean = 100;
        config.fault_process.end = 2500;
      }
      FaultScenario scenario;
      scenario.warmup = 300;
      scenario.burst = 0;  // the sustained load IS the adversary
      scenario.observation = 2500;
      scenario.drain = 1500;
      g.add("rate_" + std::to_string(rate), config, scenario, 4);
    }
    return g;
  };
  const GridResult serial = ExperimentEngine(EngineOptions{.jobs = 1}).run(grid());
  const GridResult parallel =
      ExperimentEngine(EngineOptions{.jobs = 8}).run(grid());
  const std::string a =
      report::strip_volatile_lines(grid_to_json("fault_load", serial).dump());
  const std::string b =
      report::strip_volatile_lines(grid_to_json("fault_load", parallel).dump());
  EXPECT_EQ(a, b);
  // The digest must key on the fault-load shape: distinct cells differ.
  ASSERT_EQ(serial.cells.size(), 2u);
  EXPECT_NE(serial.cells[0].config_digest, serial.cells[1].config_digest);
}

}  // namespace
}  // namespace graybox::core
