// E10 — substrate microbenchmarks (google-benchmark).
//
// Costs of the building blocks: scheduler event dispatch, channel
// enqueue/deliver, full protocol round-trips, global snapshot + monitor
// observation, and the finite-system algebra decision procedures. These
// bound how large an experiment the simulator sustains and quantify the
// monitoring overhead that the HarnessConfig::install_monitors switch
// removes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/checks.hpp"
#include "algebra/generate.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "obs/event_bus.hpp"
#include "obs/provenance.hpp"
#include "lspec/lspec_clause_monitors.hpp"
#include "lspec/snapshot.hpp"
#include "lspec/tme_monitors.hpp"
#include "me/ricart_agrawala.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace graybox;

void BM_SchedulerScheduleExecute(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      sched.schedule_after(static_cast<SimTime>(i % 7), [&] { ++sink; });
    while (sched.step()) {
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerScheduleExecute);

void BM_SchedulerCancel(benchmark::State& state) {
  sim::Scheduler sched;
  for (auto _ : state) {
    sim::EventId ids[64];
    for (int i = 0; i < 64; ++i)
      ids[i] = sched.schedule_after(1000, [] {});
    for (int i = 0; i < 64; ++i) sched.cancel(ids[i]);
    while (sched.step()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerCancel);

void BM_ChannelEnqueueDeliver(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t delivered = 0;
  net::Channel channel(sched, net::DelayModel::fixed(1), Rng(1),
                       [&](const net::Message&) { ++delivered; });
  net::Message msg;
  msg.from = 0;
  msg.to = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) channel.enqueue(msg);
    while (sched.step()) {
    }
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChannelEnqueueDeliver);

// --- Simulation-core hot path, before and after ------------------------------
//
// The scheduler was rebuilt from a (time, seq) binary heap with
// std::function callbacks and hash-set cancellation into a bucketed time
// wheel with inline-storage callbacks and generation-stamped slots; the
// channel queue went from std::deque to a slot-reusing ring. These pairs
// keep the "before" implementation alive inside the bench so the speedup
// stays measurable on any machine: each side reports events_per_sec, and
// the before/after ratio is a straight division of two JSON fields.

// The pre-wheel scheduler core, reduced to its hot path: heap entries,
// heap-allocated callbacks, tombstone skipping via a live-id map.
class ReferenceSchedulerCore {
 public:
  using Id = std::uint64_t;

  Id schedule_after(SimTime delay, std::function<void()> fn) {
    const Id id = next_id_++;
    queue_.push(Entry{now_ + delay, id});
    fns_.emplace(id, std::move(fn));
    return id;
  }

  bool cancel(Id id) { return fns_.erase(id) > 0; }

  bool step() {
    while (!queue_.empty() && fns_.find(queue_.top().id) == fns_.end())
      queue_.pop();
    if (queue_.empty()) return false;
    const Entry e = queue_.top();
    queue_.pop();
    auto node = fns_.extract(e.id);
    now_ = e.time;
    auto fn = std::move(node.mapped());
    fn();
    return true;
  }

  SimTime now() const { return now_; }

 private:
  struct Entry {
    SimTime time;
    Id id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_map<Id, std::function<void()>> fns_;
  SimTime now_ = 0;
  Id next_id_ = 1;
};

// Shared workload for the scheduler-core pair: near events with a far-future
// re-armed timer and a cancel stream — the engine's access pattern.
template <class S, class Id>
void scheduler_core_workload(S& sched, std::uint64_t& sink) {
  Id timer = sched.schedule_after(5'000, [] {});
  for (int i = 0; i < 64; ++i) {
    sched.schedule_after(static_cast<SimTime>(i % 7), [&sink] { ++sink; });
    if (i % 8 == 7) {
      sched.cancel(timer);
      timer = sched.schedule_after(5'000, [] {});
    }
  }
  sched.cancel(timer);
  while (sched.step()) {
  }
}

void set_core_counters(benchmark::State& state, std::uint64_t per_iter) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(per_iter));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * per_iter),
      benchmark::Counter::kIsRate);
}

void BM_SchedulerCore(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  for (auto _ : state)
    scheduler_core_workload<sim::Scheduler, sim::EventId>(sched, sink);
  benchmark::DoNotOptimize(sink);
  set_core_counters(state, 64);
  state.SetLabel("time wheel + inline callbacks (after)");
}
BENCHMARK(BM_SchedulerCore);

void BM_SchedulerCoreReference(benchmark::State& state) {
  ReferenceSchedulerCore sched;
  std::uint64_t sink = 0;
  for (auto _ : state)
    scheduler_core_workload<ReferenceSchedulerCore, ReferenceSchedulerCore::Id>(
        sched, sink);
  benchmark::DoNotOptimize(sink);
  set_core_counters(state, 64);
  state.SetLabel("binary heap + std::function (before)");
}
BENCHMARK(BM_SchedulerCoreReference);

void BM_ChannelEnqueue(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t delivered = 0;
  net::Channel channel(sched, net::DelayModel::fixed(1), Rng(1),
                       [&](const net::Message&) { ++delivered; });
  net::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.vc = clk::VectorClock(0, 12);  // realistic payload
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      net::Message m = msg;
      channel.enqueue(std::move(m));
    }
    while (sched.step()) {
    }
  }
  benchmark::DoNotOptimize(delivered);
  set_core_counters(state, 64);
  state.SetLabel("message ring + move enqueue (after)");
}
BENCHMARK(BM_ChannelEnqueue);

void BM_ChannelEnqueueReference(benchmark::State& state) {
  // The pre-ring queue on the pre-wheel scheduler: deque chunk churn plus
  // one heap-allocated tick callback per message.
  ReferenceSchedulerCore sched;
  std::uint64_t delivered = 0;
  std::deque<net::Message> queue;
  net::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.vc = clk::VectorClock(0, 12);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.push_back(msg);
      sched.schedule_after(1, [&] {
        if (queue.empty()) return;
        net::Message m = std::move(queue.front());
        queue.pop_front();
        benchmark::DoNotOptimize(m);
        ++delivered;
      });
    }
    while (sched.step()) {
    }
  }
  benchmark::DoNotOptimize(delivered);
  set_core_counters(state, 64);
  state.SetLabel("std::deque + copy enqueue (before)");
}
BENCHMARK(BM_ChannelEnqueueReference);

void BM_RicartAgrawalaFullCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  net::Network net(sched, n, net::DelayModel::fixed(1), Rng(1));
  std::vector<std::unique_ptr<me::RicartAgrawala>> procs;
  for (ProcessId pid = 0; pid < n; ++pid) {
    procs.push_back(std::make_unique<me::RicartAgrawala>(pid, net));
    auto* p = procs.back().get();
    net.set_handler(pid, [p](const net::Message& m) { p->on_message(m); });
  }
  for (auto _ : state) {
    procs[0]->request_cs();
    while (sched.step()) {
    }
    procs[0]->release_cs();
    while (sched.step()) {
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("request->enter->release, n=" + std::to_string(n));
}
BENCHMARK(BM_RicartAgrawalaFullCycle)->Arg(3)->Arg(6)->Arg(12);

// --- E10 centerpiece: the observation hot path, before and after ------------
//
// Three variants of "snapshot + full monitor battery per simulator event",
// identical systems and identical monitor sets:
//
//   FullReference   - the pre-delta pipeline: allocate a fresh snapshot,
//                     fill all N rows, copy it into the monitor set
//                     (SnapshotSource::capture_full + MonitorSet::observe).
//   DeltaDirtyRotation - the shipping pipeline under its design load: one
//                     process event per capture (the simulator's
//                     one-process-per-event guarantee), so exactly one row
//                     is rewritten and per-clause monitors check one row.
//   DeltaSteadyState - the shipping pipeline when nothing changed at all
//                     (kDirtyNone): the floor of the observation cost.
//
// Each reports events_per_sec and capture_ns_per_event counters, so the
// before/after ratio is a straight division of two JSON fields.

struct ObservationRig {
  explicit ObservationRig(std::size_t n)
      : net(sched, n, net::DelayModel::fixed(1), Rng(1)) {
    for (ProcessId pid = 0; pid < n; ++pid) {
      procs.push_back(std::make_unique<me::RicartAgrawala>(pid, net));
      raw.push_back(procs.back().get());
      auto* p = procs.back().get();
      net.set_handler(pid, [p](const net::Message& m) { p->on_message(m); });
    }
    source.emplace(raw, net);
    lspec::install_tme_monitors(monitors, n);
    lspec::install_lspec_clause_monitors(monitors);
  }

  sim::Scheduler sched;
  net::Network net;
  std::vector<std::unique_ptr<me::RicartAgrawala>> procs;
  std::vector<me::TmeProcess*> raw;
  std::optional<lspec::SnapshotSource> source;
  lspec::TmeMonitorSet monitors;
};

void set_observation_counters(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations());
  const auto events = static_cast<double>(state.iterations());
  state.counters["events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["capture_ns_per_event"] = benchmark::Counter(
      events * 1e-9,
      benchmark::Counter::Flags(benchmark::Counter::kIsRate |
                                benchmark::Counter::kInvert));
}

void BM_ObserveFullReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ObservationRig rig(n);
  SimTime t = 0;
  for (auto _ : state) {
    ++t;
    rig.procs[t % n]->poll();  // one process event, as in a live run
    rig.monitors.observe(t, rig.source->capture_full(t));
  }
  set_observation_counters(state);
}
BENCHMARK(BM_ObserveFullReference)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24);

void BM_ObserveDeltaDirtyRotation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ObservationRig rig(n);
  SimTime t = 0;
  for (auto _ : state) {
    ++t;
    rig.procs[t % n]->poll();  // dirties exactly one observation row
    const lspec::GlobalSnapshot& cur = rig.source->capture(t);
    rig.monitors.observe_ref(t, rig.source->previous(), cur,
                             rig.source->last_dirty());
  }
  set_observation_counters(state);
}
BENCHMARK(BM_ObserveDeltaDirtyRotation)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24);

void BM_ObserveDeltaSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ObservationRig rig(n);
  SimTime t = 0;
  for (auto _ : state) {
    ++t;
    const lspec::GlobalSnapshot& cur = rig.source->capture(t);
    rig.monitors.observe_ref(t, rig.source->previous(), cur,
                             rig.source->last_dirty());
  }
  set_observation_counters(state);
}
BENCHMARK(BM_ObserveDeltaSteadyState)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24);

// --- observability layer costs ----------------------------------------------
//
// The acceptance bar for the obs subsystem: producers stay permanently
// attached to the EventBus, so with recording disabled (capacity 0) every
// would-be event costs exactly one predicted branch — the events_per_sec of
// the Observe* benches above and of the disabled side here must stay within
// noise (<2%) of the pre-obs baseline. The enabled side prices the ring
// write plus the aggregate update.

void BM_EventBusRecord(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  obs::EventBus bus(sched, capacity);
  obs::Event e;
  e.kind = obs::EventKind::kSend;
  e.pid = 0;
  e.peer = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      e.payload = static_cast<std::uint64_t>(i);
      bus.record(e);
      // Producers call record() from separate frames; don't let the
      // optimizer hoist the enabled check out of the loop.
      benchmark::ClobberMemory();
    }
  }
  benchmark::DoNotOptimize(bus.total_recorded());
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(capacity == 0 ? "disabled"
                               : "ring=" + std::to_string(capacity));
}
BENCHMARK(BM_EventBusRecord)->Arg(0)->Arg(4096);

void BM_ProvenanceRecord(benchmark::State& state) {
  // The per-event provenance hook in both gears. Disabled prices the
  // null-tracker predicted branch every producer pays (the Network send
  // path); enabled prices the full tainted-send round trip: copy the
  // sender's taint onto the message, account it, merge into the receiver.
  // No allocation on either side — mint() is the only allocating call and
  // happens once per fault, outside this loop.
  const bool enabled = state.range(0) != 0;
  obs::ProvenanceTracker tracker(8);
  obs::ProvenanceTracker* prov = enabled ? &tracker : nullptr;
  if (enabled) {
    tracker.taint_process(0, tracker.mint(/*code=*/2, /*origin=*/0,
                                          /*now=*/1));
  }
  obs::TaintSet msg_taint;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      if (prov != nullptr) {
        msg_taint = prov->process_taint(0);
        if (!msg_taint.empty()) prov->note_message_taint(msg_taint);
        prov->merge_process(1, msg_taint);
      }
      // Hooks fire from separate producer frames; keep the branch live.
      benchmark::ClobberMemory();
    }
  }
  benchmark::DoNotOptimize(msg_taint.count);
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_ProvenanceRecord)->Arg(0)->Arg(1);

// One simulated kilotick per iteration, reported as simulator events per
// second (events_per_sec, the engine cells' end-to-end unit).
void run_harness_kiloticks(benchmark::State& state,
                           const core::HarnessConfig& config) {
  core::SystemHarness h(config);
  h.start();
  const std::uint64_t before = h.scheduler().executed();
  for (auto _ : state) {
    h.run_for(1000);
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.scheduler().executed() - before),
      benchmark::Counter::kIsRate);
}

void BM_HarnessObservability(benchmark::State& state) {
  // One simulated kilotick of the busy wrapped 5-process system under the
  // three observability levels: off (the default every experiment runs
  // with), typed event trace retained, trace + metrics instrumentation.
  const auto mode = state.range(0);
  core::HarnessConfig config;
  config.n = 5;
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = 12;
  if (mode >= 1) config.trace_capacity = 1 << 16;
  if (mode >= 2) config.collect_metrics = true;
  run_harness_kiloticks(state, config);
  state.SetLabel(mode == 0 ? "obs off"
                           : mode == 1 ? "event trace" : "trace+metrics");
}
BENCHMARK(BM_HarnessObservability)->Arg(0)->Arg(1)->Arg(2);

void BM_HarnessSimulatedSecond(benchmark::State& state) {
  // One "simulated kilotick" of a busy 5-process wrapped system, with and
  // without monitors (range(0) = monitors on).
  const bool monitors = state.range(0) != 0;
  core::HarnessConfig config;
  config.n = 5;
  config.wrapped = true;
  config.install_monitors = monitors;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = 12;
  run_harness_kiloticks(state, config);
  state.SetLabel(monitors ? "monitors on" : "monitors off");
}
BENCHMARK(BM_HarnessSimulatedSecond)->Arg(0)->Arg(1);

void BM_AlgebraStabilizesTo(benchmark::State& state) {
  const auto states = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  algebra::RandomSystemParams params;
  params.num_states = states;
  const algebra::System a = algebra::random_system(rng, params);
  const algebra::System w = algebra::random_wrapper(rng, a, 8);
  const algebra::System aw = algebra::System::box(a, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algebra::stabilizes_to(aw, a));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AlgebraStabilizesTo)->Arg(16)->Arg(64)->Arg(256);

void BM_AlgebraBoxCompose(benchmark::State& state) {
  const auto states = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  algebra::RandomSystemParams params;
  params.num_states = states;
  const algebra::System a = algebra::random_system(rng, params);
  const algebra::System b = algebra::random_system(rng, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algebra::System::box(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AlgebraBoxCompose)->Arg(64)->Arg(256);

void BM_EngineSmallCell(benchmark::State& state) {
  // Engine overhead on a tiny cell (range(0) = jobs): spec construction,
  // fan-out, and the seed-order fold around four short trials.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  core::HarnessConfig config;
  config.n = 3;
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = 21;
  core::FaultScenario scenario;
  scenario.warmup = 200;
  scenario.burst = 4;
  scenario.observation = 800;
  scenario.drain = 500;
  const core::ExperimentEngine engine(core::EngineOptions{.jobs = jobs});
  for (auto _ : state) {
    core::SpecGrid grid;
    grid.add("cell", config, scenario, 4);
    benchmark::DoNotOptimize(engine.run(grid));
  }
  state.SetItemsProcessed(state.iterations() * 4);
  state.SetLabel("jobs=" + std::to_string(jobs));
}
BENCHMARK(BM_EngineSmallCell)->Arg(1)->Arg(2);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): display results on the console
// AND write the google-benchmark JSON report as the binary's
// BENCH_substrate_micro.json artifact, matching the engine-backed benches.
//
// For uniformity with those benches the engine-style flags are accepted and
// translated to google-benchmark ones:
//
//   --trials N   -> --benchmark_min_time=<0.05*N>  (N=1 is the CI smoke:
//                   one short measurement pass per benchmark)
//   --json PATH  -> --benchmark_out=PATH; "--json -" suppresses the file
//                   artifact entirely (console output only)
//   --jobs N     -> accepted and ignored (microbenchmarks are inherently
//                   sequential); CI reruns at --jobs 1 and --jobs 8 and
//                   diffs the stripped artifacts to pin that the flag
//                   cannot change the output
int main(int argc, char** argv) {
  std::vector<std::string> translated;
  bool has_out = false;
  bool suppress_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& flag) -> std::string {
      // Accepts "--flag value" and "--flag=value".
      if (arg == flag && i + 1 < argc) return argv[++i];
      if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
      return {};
    };
    if (arg == "--trials" || arg.rfind("--trials=", 0) == 0) {
      const double trials = std::max(1.0, std::atof(value_of("--trials").c_str()));
      translated.push_back("--benchmark_min_time=" +
                           std::to_string(0.05 * trials));
      continue;
    }
    if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      (void)value_of("--jobs");
      continue;
    }
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      const std::string path = value_of("--json");
      if (path == "-") {
        suppress_out = true;
      } else if (!path.empty()) {
        translated.push_back("--benchmark_out=" + path);
        has_out = true;
      }
      continue;
    }
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    translated.push_back(arg);
  }
  // The library requires --benchmark_out when a file reporter is passed to
  // RunSpecifiedBenchmarks; default it to the standard artifact path so a
  // bare invocation behaves like the engine-backed benches.
  if (!has_out && !suppress_out) {
    translated.push_back("--benchmark_out=BENCH_substrate_micro.json");
  }

  std::vector<std::string> arg_storage;
  arg_storage.push_back(argv[0]);
  for (auto& a : translated) arg_storage.push_back(a);
  std::vector<char*> args;
  for (auto& a : arg_storage) args.push_back(a.data());
  args.push_back(nullptr);
  int args_count = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::ConsoleReporter console;
  if (suppress_out) {
    benchmark::RunSpecifiedBenchmarks(&console);
  } else {
    benchmark::JSONReporter json;
    benchmark::RunSpecifiedBenchmarks(&console, &json);
  }
  benchmark::Shutdown();
  return 0;
}
