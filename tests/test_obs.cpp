// The observability layer: typed EventBus (ring, exact aggregates, text
// dump), metric samples and their engine-side aggregate fold,
// stabilization timelines, and the Perfetto export — plus the load-bearing
// guarantees that (a) every exported metric/timeline artifact is
// byte-identical across --jobs values and repeated runs, and (b) the two
// timeline sources (live harness state vs. bus aggregates) fold to the
// same timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_injector.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/timeline.hpp"
#include "sim/scheduler.hpp"

namespace graybox {
namespace {

using obs::Event;
using obs::EventBus;
using obs::EventKind;

// --- EventBus: ring, aggregates, rendering -----------------------------------

Event send_event(ProcessId from, ProcessId to, std::uint64_t counter = 0) {
  Event e;
  e.kind = EventKind::kSend;
  e.pid = from;
  e.peer = to;
  e.payload = counter;
  return e;
}

TEST(EventBus, StampsSchedulerTimeAndRetainsOldestFirst) {
  sim::Scheduler sched;
  EventBus bus(sched, 16);
  EXPECT_TRUE(bus.enabled());
  for (const SimTime t : {3, 7, 7, 12}) {
    sched.schedule_after(t - sched.now(),
                         [&bus] { bus.record(send_event(0, 1)); });
    while (sched.step()) {
    }
  }
  ASSERT_EQ(bus.size(), 4u);
  EXPECT_EQ(bus.total_recorded(), 4u);
  const SimTime expected[] = {3, 7, 7, 12};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bus.event(i).time, expected[i]) << i;
  }
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 4u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).first, 3u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).last, 12u);
  EXPECT_EQ(bus.kind_stats(EventKind::kDeliver).count, 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kDeliver).first, kNever);
}

TEST(EventBus, DisabledBusRecordsNothing) {
  sim::Scheduler sched;
  EventBus bus(sched, 0);
  EXPECT_FALSE(bus.enabled());
  bus.record(send_event(0, 1));
  bus.record(send_event(1, 0));
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 0u);
}

TEST(EventBus, RingEvictsOldestButAggregatesStayExact) {
  sim::Scheduler sched;
  EventBus bus(sched, 3);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sched.schedule_after(1, [&bus, i] { bus.record(send_event(0, 1, i)); });
    while (sched.step()) {
    }
  }
  // Only the last 3 are retained...
  ASSERT_EQ(bus.size(), 3u);
  EXPECT_EQ(bus.event(0).payload, 8u);
  EXPECT_EQ(bus.event(1).payload, 9u);
  EXPECT_EQ(bus.event(2).payload, 10u);
  // ...but counts and first/last survive eviction exactly.
  EXPECT_EQ(bus.total_recorded(), 10u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 10u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).first, 1u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).last, 10u);
}

TEST(EventBus, ClearResetsRingAndAggregates) {
  sim::Scheduler sched;
  EventBus bus(sched, 4);
  bus.set_monitor_names({"ME1"});
  Event v;
  v.kind = EventKind::kMonitorViolation;
  v.monitor = 0;
  bus.record(v);
  bus.record(send_event(0, 1));
  ASSERT_EQ(bus.size(), 2u);
  bus.clear();
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kMonitorViolation).count, 0u);
  // The bus remains usable after clear().
  bus.record(send_event(2, 3));
  EXPECT_EQ(bus.size(), 1u);
  EXPECT_EQ(bus.total_recorded(), 1u);
}

TEST(EventBus, RenderMatchesLegacyTraceText) {
  sim::Scheduler sched;
  EventBus bus(sched, 4);
  bus.set_monitor_names({"ME1"});

  Event send = send_event(0, 1, 5);
  send.a = 0;  // request
  send.aux = 0;
  EXPECT_EQ(bus.render(send), "send request(5.0) 0->1");
  send.flags = Event::kFromWrapper;
  EXPECT_EQ(bus.render(send), "send request(5.0) 0->1 [wrapper]");

  Event recv = send_event(1, 0, 3);
  recv.kind = EventKind::kDeliver;
  recv.a = 1;  // reply
  recv.aux = 2;
  EXPECT_EQ(bus.render(recv), "recv reply(3.2) 1->0");

  Event drop;
  drop.kind = EventKind::kDrop;
  drop.payload = 4;
  EXPECT_EQ(bus.render(drop), "drop 4 message(s)");

  Event step;
  step.kind = EventKind::kLocalStep;
  step.pid = 0;
  step.a = 0;  // thinking
  step.b = 1;  // hungry
  EXPECT_EQ(bus.render(step), "proc 0: thinking -> hungry");

  Event fault;
  fault.kind = EventKind::kFaultInjected;
  fault.a = static_cast<std::uint8_t>(net::FaultKind::kProcessCorrupt);
  fault.pid = 2;
  EXPECT_EQ(bus.render(fault),
            std::string("fault ") +
                net::to_string(net::FaultKind::kProcessCorrupt) + " @proc 2");

  Event resend;
  resend.kind = EventKind::kWrapperCorrection;
  resend.pid = 1;
  resend.peer = 3;
  EXPECT_EQ(bus.render(resend), "wrapper 1: resend REQ to 3");

  Event viol;
  viol.kind = EventKind::kMonitorViolation;
  viol.monitor = 0;
  EXPECT_EQ(bus.render(viol), "violation ME1");
  viol.monitor = 9;  // out of table
  EXPECT_EQ(bus.render(viol), "violation monitor#9");
}

TEST(EventBus, RendersAllElevenFaultCodeNames) {
  // Golden text for the whole FaultKind vocabulary: the mixable kinds 0-6
  // plus the lifecycle kinds 7-10. Pinned in one place so a renamed kind
  // shows up as a test diff, not as a silently relabeled trace.
  const char* const kGolden[obs::kFaultKindCount] = {
      "message-drop",   "message-duplicate", "message-corrupt",
      "message-reorder", "spurious-message", "process-corrupt",
      "channel-clear",  "process-crash",     "process-recover",
      "partition",      "partition-heal"};
  sim::Scheduler sched;
  // No bus registers fault names: every bus renders the vocabulary.
  EventBus bus(sched, 4);
  for (std::uint8_t code = 0; code < obs::kFaultKindCount; ++code) {
    Event f;
    f.kind = EventKind::kFaultInjected;
    f.a = code;
    EXPECT_EQ(bus.render(f), std::string("fault ") + kGolden[code])
        << unsigned{code};
    EXPECT_STREQ(obs::to_string(static_cast<obs::FaultKind>(code)),
                 kGolden[code]);
  }
  // Past the vocabulary: the fallback name, never a null or a stale label.
  Event f;
  f.kind = EventKind::kFaultInjected;
  f.a = 42;
  EXPECT_EQ(bus.render(f), "fault unknown-fault");
}

// --- Trace: the bus's "[time] text" dump ------------------------------------

// Drop events with payload i at sim time i, for i in [0, count).
void record_drops(sim::Scheduler& sched, EventBus& bus, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    sched.schedule_at(i, [&bus, i] {
      Event e;
      e.kind = EventKind::kDrop;
      e.payload = i;
      bus.record(e);
    });
  }
  while (sched.step()) {
  }
}

std::string dump(const EventBus& bus, std::size_t last_n = 64) {
  std::ostringstream os;
  bus.dump(os, last_n);
  return os.str();
}

TEST(Trace, DumpFormatsTail) {
  sim::Scheduler sched;
  EventBus bus(sched, 16);
  sched.schedule_at(5, [&bus] { bus.record(send_event(0, 1, 9)); });
  while (sched.step()) {
  }
  EXPECT_EQ(dump(bus), "[5] send request(9.0) 0->1\n");
}

TEST(Trace, DumpLastNTruncatesToTail) {
  sim::Scheduler sched;
  EventBus bus(sched, 16);
  record_drops(sched, bus, 5);
  EXPECT_EQ(dump(bus, 2), "[3] drop 3 message(s)\n[4] drop 4 message(s)\n");
}

TEST(Trace, DumpZeroPrintsNothing) {
  sim::Scheduler sched;
  EventBus bus(sched, 16);
  record_drops(sched, bus, 1);
  EXPECT_EQ(dump(bus, 0), "");
}

TEST(Trace, DumpMoreThanSizePrintsEverything) {
  sim::Scheduler sched;
  EventBus bus(sched, 4);
  record_drops(sched, bus, 3);
  EXPECT_EQ(dump(bus, 100),
            "[0] drop 0 message(s)\n[1] drop 1 message(s)\n"
            "[2] drop 2 message(s)\n");
}

TEST(Trace, DumpAfterEvictionStartsAtOldestRetained) {
  sim::Scheduler sched;
  EventBus bus(sched, 2);
  record_drops(sched, bus, 5);
  EXPECT_EQ(dump(bus), "[3] drop 3 message(s)\n[4] drop 4 message(s)\n");
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, Pow2BoundsShape) {
  const auto bounds = obs::Histogram::pow2_bounds(4);
  const std::vector<std::uint64_t> expected = {0, 1, 2, 4, 8, 16};
  EXPECT_EQ(bounds, expected);
}

TEST(Histogram, BucketAssignmentAndMoments) {
  obs::Histogram h(obs::Histogram::pow2_bounds(3));  // 0,1,2,4,8 + overflow
  ASSERT_EQ(h.buckets().size(), 6u);
  for (const std::uint64_t v : {0u, 0u, 1u, 2u, 3u, 4u, 8u, 9u, 100u}) {
    h.observe(v);
  }
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 127u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 127.0 / 9.0);
  // Bucket i counts values in (bounds[i-1], bounds[i]].
  EXPECT_EQ(h.buckets()[0], 2u);  // <= 0
  EXPECT_EQ(h.buckets()[1], 1u);  // 1
  EXPECT_EQ(h.buckets()[2], 1u);  // 2
  EXPECT_EQ(h.buckets()[3], 2u);  // 3..4
  EXPECT_EQ(h.buckets()[4], 1u);  // 5..8
  EXPECT_EQ(h.buckets()[5], 2u);  // overflow: 9, 100
}

TEST(Histogram, EmptyIsWellDefined) {
  obs::Histogram h({10, 20});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// --- Metric samples ----------------------------------------------------------

TEST(MetricsSnapshotJson, CarriesEveryInstrument) {
  obs::Histogram depth({1, 2});
  depth.observe(2);
  const std::string text =
      obs::metrics_snapshot_to_json({obs::counter_sample("sends", 7),
                                     obs::histogram_sample("depth", depth)})
          .dump();
  EXPECT_NE(text.find("\"sends\""), std::string::npos);
  EXPECT_NE(text.find("\"depth\""), std::string::npos);
  EXPECT_NE(text.find("\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"histogram\""), std::string::npos);
}

// --- MetricsAggregate: the engine's fold -------------------------------------

obs::MetricsSnapshot fake_trial_snapshot(std::uint64_t seed) {
  obs::Histogram wait(obs::Histogram::pow2_bounds(3));
  for (std::uint64_t v = 0; v <= seed; ++v) wait.observe(v);
  return {obs::counter_sample("cs", 10 + seed),
          obs::histogram_sample("wait", wait)};
}

TEST(MetricsAggregate, JsonShape) {
  obs::MetricsAggregate agg;
  agg.add(fake_trial_snapshot(1));
  agg.add(fake_trial_snapshot(2));
  const std::string text = agg.to_json().dump(0);
  EXPECT_NE(text.find("\"cs\""), std::string::npos);
  EXPECT_NE(text.find("\"trials\":2"), std::string::npos);
  EXPECT_NE(text.find("\"mean\""), std::string::npos);
  EXPECT_NE(text.find("\"buckets\""), std::string::npos);
}

// --- Harness integration -----------------------------------------------------

core::HarnessConfig obs_config(std::uint64_t seed) {
  core::HarnessConfig config;
  config.n = 3;
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = seed;
  return config;
}

// One short faulted run: warmup, burst, observation, drain.
void run_burst(core::SystemHarness& h, std::size_t burst = 8) {
  h.start();
  h.run_for(400);
  h.faults().burst(burst, net::FaultMix::all());
  h.run_for(2500);
  h.drain(2000);
}

TEST(HarnessMetrics, CollectedAndDeterministic) {
  core::HarnessConfig config = obs_config(42);
  config.collect_metrics = true;
  core::SystemHarness h(config);
  run_burst(h);
  const core::RunStats stats = h.stats();
  ASSERT_FALSE(stats.metrics.empty());

  std::uint64_t fault_counter_sum = 0;
  std::uint64_t violation_counter_sum = 0;
  std::uint64_t cs_wait_count = 0;
  bool saw_depth = false, saw_in_flight = false, saw_resends = false;
  for (const obs::MetricSample& s : stats.metrics) {
    if (s.name.rfind("faults.", 0) == 0) {
      fault_counter_sum += static_cast<std::uint64_t>(s.value);
    } else if (s.name.rfind("violations.", 0) == 0) {
      violation_counter_sum += static_cast<std::uint64_t>(s.value);
    } else if (s.name == "cs_wait_ticks") {
      cs_wait_count = static_cast<std::uint64_t>(s.value);
    } else if (s.name == "channel_queue_depth") {
      saw_depth = true;
    } else if (s.name == "net_in_flight") {
      saw_in_flight = true;
    } else if (s.name == "wrapper_resends") {
      saw_resends = s.value >= 0;
    }
  }
  // The counter samples read the component state exactly.
  EXPECT_EQ(fault_counter_sum, stats.faults_injected);
  EXPECT_EQ(violation_counter_sum, h.monitors().total_violations());
  // Every hungry -> eating entry recorded a wait; corruption-induced CS
  // entries (no hungry phase) legitimately record none.
  EXPECT_GT(stats.cs_entries, 0u);
  EXPECT_GT(cs_wait_count, 0u);
  EXPECT_LE(cs_wait_count, stats.cs_entries);
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_in_flight);
  EXPECT_TRUE(saw_resends);

  // Identical seed, fresh harness: byte-identical metrics artifact.
  core::SystemHarness h2(config);
  run_burst(h2);
  EXPECT_EQ(obs::metrics_snapshot_to_json(h2.stats().metrics).dump(),
            obs::metrics_snapshot_to_json(stats.metrics).dump());
}

TEST(HarnessTimeline, ConsistentWithStabilizationReport) {
  core::SystemHarness h(obs_config(7));
  run_burst(h);
  const core::StabilizationReport report = h.stabilization_report();
  const obs::StabilizationTimeline tl = h.timeline();

  EXPECT_EQ(tl.run_end, h.scheduler().now());
  EXPECT_GT(tl.faults_injected, 0u);
  EXPECT_EQ(tl.last_fault, report.last_fault);
  EXPECT_LE(tl.first_fault, tl.last_fault);

  // The timeline watches every monitor; the report only the safety subset.
  // Its divergent window can therefore only be wider than the report's
  // latency, never narrower.
  EXPECT_GE(tl.divergent_window(), report.latency);
  EXPECT_EQ(tl.clauses.size(), h.monitors().monitors().size());
  std::uint64_t clause_sum = 0;
  for (const obs::TimelineEntry& c : tl.clauses) clause_sum += c.count;
  EXPECT_EQ(clause_sum, tl.violations_total);
  EXPECT_EQ(tl.violations_total, h.monitors().total_violations());

  // Per-kind fault entries sum back to the burst total.
  std::uint64_t fault_sum = 0;
  for (const obs::TimelineEntry& f : tl.faults) fault_sum += f.count;
  EXPECT_EQ(fault_sum, tl.faults_injected);
  EXPECT_EQ(tl.faults_injected, h.faults().total_injected());

  // Rendering mentions every phase of the convergence story.
  const std::string text = tl.to_string();
  EXPECT_NE(text.find("fault burst:"), std::string::npos);
  EXPECT_NE(text.find("first violation:"), std::string::npos);
  EXPECT_NE(text.find("violation decay:"), std::string::npos);
  EXPECT_NE(text.find("divergent window:"), std::string::npos);
  EXPECT_NE(text.find("quiescence:"), std::string::npos);
}

// The bus saw every fault and every violation the live harness counts:
// its per-kind count, first and last equal the timeline's totals.
void expect_bus_timeline_matches_live(const core::SystemHarness& h) {
  const obs::StabilizationTimeline live = h.timeline();
  const obs::KindStats& faults =
      h.events().kind_stats(obs::EventKind::kFaultInjected);
  const obs::KindStats& violations =
      h.events().kind_stats(obs::EventKind::kMonitorViolation);
  EXPECT_FALSE(live.faults.empty());
  EXPECT_EQ(faults.count, live.faults_injected);
  EXPECT_EQ(faults.first, live.first_fault);
  EXPECT_EQ(faults.last, live.last_fault);
  EXPECT_EQ(violations.count, live.violations_total);
  EXPECT_EQ(violations.first, live.first_violation);
  EXPECT_EQ(violations.last, live.last_violation);
}

TEST(HarnessTimeline, BusDerivationAgreesWithLiveState) {
  core::HarnessConfig config = obs_config(11);
  config.trace_capacity = 1u << 20;  // retain the whole run
  core::SystemHarness h(config);
  run_burst(h);
  expect_bus_timeline_matches_live(h);
}

TEST(HarnessTimeline, BusAggregatesSurviveRingEviction) {
  // A pathologically tiny ring under sustained fault load: nearly every
  // event is evicted, but the bus's first/last aggregates are exact, so
  // the bus still agrees with the live harness.
  core::HarnessConfig config = obs_config(21);
  config.trace_capacity = 8;
  config.fault_process.drop_mean = 150;
  config.fault_process.corrupt_mean = 150;
  config.fault_process.process_corrupt_mean = 300;
  config.fault_process.start = 400;
  config.fault_process.end = 2900;
  core::SystemHarness h(config);
  h.start();
  h.run_for(2900);
  h.drain(2000);

  ASSERT_EQ(h.events().size(), 8u);  // only the tail is retained...
  EXPECT_GT(h.events().total_recorded(), 1000u);  // ...of a long run
  expect_bus_timeline_matches_live(h);
}

TEST(HarnessLifecycle, TimelineParityWithBusUnderLifecycleFaults) {
  // Crash, recover, partition and heal are injector faults like any other:
  // they land in its fault-code rows and on the bus alike.
  core::HarnessConfig config;
  config.n = 4;
  config.seed = 17;
  config.wrapper.resend_period = 20;
  config.trace_capacity = 1u << 20;
  core::SystemHarness h(config);
  h.start();
  h.run_for(400);
  h.faults().burst(4, net::FaultMix::all());
  auto inject = [&h](net::FaultKind code, ProcessId pid, std::uint64_t mask) {
    h.faults().inject_targeted(
        net::TargetedFault{.code = code, .a = pid, .mask = mask});
  };
  inject(net::FaultKind::kProcessCrash, 2, 0);
  h.run_for(300);
  inject(net::FaultKind::kProcessRecover, 2, 0);
  inject(net::FaultKind::kPartition, kNoProcess, 0b0110);
  h.run_for(300);
  inject(net::FaultKind::kPartitionHeal, kNoProcess, 0);
  h.run_for(2000);
  h.drain(2000);

  expect_bus_timeline_matches_live(h);
  bool saw_crash = false, saw_heal = false;
  for (const obs::TimelineEntry& f : h.timeline().faults) {
    saw_crash = saw_crash || f.name == "process-crash";
    saw_heal = saw_heal || f.name == "partition-heal";
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_heal);
}

TEST(HarnessTrace, RecordsWhenEnabled) {
  core::HarnessConfig config = obs_config(5);
  config.trace_capacity = 256;
  core::SystemHarness h(config);
  h.start();
  h.run_for(500);
  EXPECT_GT(h.events().total_recorded(), 0u);
  // Spot-check record shapes: a send and a state transition.
  const std::string text = dump(h.events(), h.events().size());
  EXPECT_NE(text.find("] send "), std::string::npos);
  const std::size_t transition = text.find("] proc ");
  ASSERT_NE(transition, std::string::npos);
  EXPECT_NE(text.find(" -> ", transition), std::string::npos);
}

TEST(HarnessTrace, LazyViewPreservesLegacyFormat) {
  core::HarnessConfig config = obs_config(5);
  config.trace_capacity = 2048;
  core::SystemHarness h(config);
  h.start();
  h.run_for(500);

  // One "[time] text" line per retained event, sends, deliveries and
  // state transitions among them.
  auto lines = [](const std::string& text) {
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
  };
  const std::string text = dump(h.events(), h.events().size());
  ASSERT_FALSE(text.empty());
  EXPECT_LE(h.events().size(), 2048u);
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(lines(text), h.events().size());
  EXPECT_NE(text.find("] send "), std::string::npos);
  EXPECT_NE(text.find("] recv "), std::string::npos);
  EXPECT_NE(text.find("] proc "), std::string::npos);

  // The dump tracks the bus: more simulation, more (or newer) records,
  // still exactly the retained ring.
  const std::uint64_t before = h.events().total_recorded();
  h.run_for(500);
  EXPECT_GT(h.events().total_recorded(), before);
  const std::string later = dump(h.events(), h.events().size());
  EXPECT_EQ(lines(later), h.events().size());
  EXPECT_NE(later, text);
}

TEST(HarnessTrace, DisabledByDefault) {
  core::SystemHarness h(obs_config(5));
  h.start();
  h.run_for(300);
  EXPECT_FALSE(h.events().enabled());
  EXPECT_EQ(h.events().total_recorded(), 0u);
  EXPECT_EQ(dump(h.events()), "");
  EXPECT_TRUE(h.stats().metrics.empty());
}

// --- Perfetto export ---------------------------------------------------------

TEST(Perfetto, ExportsValidTrackLayout) {
  core::HarnessConfig config = obs_config(13);
  config.trace_capacity = 1u << 20;
  core::SystemHarness h(config);
  run_burst(h);

  const report::Json doc = obs::perfetto_trace_json(h.events());
  ASSERT_TRUE(doc.contains("traceEvents"));
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_GT(doc.at("traceEvents").size(), 100u);

  const std::string text = doc.dump(0);
  // Track metadata for all three pids.
  EXPECT_NE(text.find("\"processes\""), std::string::npos);
  EXPECT_NE(text.find("\"network\""), std::string::npos);
  EXPECT_NE(text.find("\"monitors\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  // Metadata, instant, and complete events all present: a faulted run has
  // traffic instants and CS occupancy slices.
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"critical section\""), std::string::npos);
  EXPECT_NE(text.find("\"fault "), std::string::npos);

  // Deterministic: same seed, fresh run, identical artifact.
  core::SystemHarness h2(config);
  run_burst(h2);
  EXPECT_EQ(obs::perfetto_trace_json(h2.events()).dump(0), text);
}

// --- Engine artifacts: byte-identical across jobs ----------------------------

TEST(EngineMetrics, CellJsonByteIdenticalAcrossJobs) {
  core::FaultScenario scenario;
  scenario.warmup = 300;
  scenario.burst = 6;
  scenario.observation = 2500;
  scenario.drain = 2000;
  core::SpecGrid grid;
  grid.add("obs_cell", obs_config(1234), scenario, 6);

  const core::GridResult serial =
      core::ExperimentEngine(core::EngineOptions{.jobs = 1}).run(grid);
  const core::GridResult parallel =
      core::ExperimentEngine(core::EngineOptions{.jobs = 8}).run(grid);

  // The engine forces metrics collection per trial, so the artifact grows a
  // metrics section...
  const std::string full =
      core::grid_to_json("obs_smoke", serial).dump();
  EXPECT_NE(full.find("\"metrics\""), std::string::npos);
  EXPECT_NE(full.find("\"cs_wait_ticks\""), std::string::npos);
  EXPECT_NE(full.find("\"wrapper_resends\""), std::string::npos);

  // ...and that section — like everything else — is byte-identical between
  // --jobs 1 and --jobs 8 once the wall-clock lines are stripped.
  const std::string a = report::strip_volatile_lines(
      core::grid_to_json("obs_smoke", serial).dump());
  const std::string b = report::strip_volatile_lines(
      core::grid_to_json("obs_smoke", parallel).dump());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace graybox
