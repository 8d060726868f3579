// ExperimentEngine and its substrate: the Accumulator/RepeatedResult merge
// algebra, the worker pool, the config digest, and — the load-bearing
// guarantee — that aggregate results and JSON artifacts are identical for
// every --jobs value (serial == parallel, bit for bit, modulo wall-clock
// fields).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <vector>

#include "common/parallel.hpp"
#include "common/report.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/engine.hpp"

namespace graybox::core {
namespace {

// --- parallel_tasks ----------------------------------------------------------

TEST(ParallelTasks, CoversEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    std::vector<std::atomic<int>> hits(101);
    parallel_tasks(hits.size(), jobs,
                   [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelTasks, ZeroCountIsANoOp) {
  parallel_tasks(0, 4, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(ParallelTasks, ResolveJobs) {
  EXPECT_GE(recommended_jobs(), 1u);
  EXPECT_EQ(resolve_jobs(0), recommended_jobs());
  EXPECT_EQ(resolve_jobs(3), 3u);
}

// --- Accumulator merge algebra ----------------------------------------------

TEST(AccumulatorMerge, BitIdenticalToSequentialAccumulation) {
  // Chunked accumulation + in-order merge must replay the exact add()
  // sequence, so every derived statistic matches BITWISE.
  Rng rng(99);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform01() * 1e4 - 5e3);

  Accumulator serial;
  for (const double x : xs) serial.add(x);

  for (const std::size_t chunks : {2u, 3u, 7u}) {
    std::vector<Accumulator> parts(chunks);
    for (std::size_t i = 0; i < xs.size(); ++i)
      parts[i * chunks / xs.size()].add(xs[i]);
    Accumulator merged;
    for (const Accumulator& part : parts) merged.merge(part);

    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_EQ(merged.mean(), serial.mean()) << chunks << " chunks";
    EXPECT_EQ(merged.stddev(), serial.stddev()) << chunks << " chunks";
    EXPECT_EQ(merged.min(), serial.min());
    EXPECT_EQ(merged.max(), serial.max());
    EXPECT_EQ(merged.sum(), serial.sum());
    EXPECT_EQ(merged.percentile(50), serial.percentile(50));
    EXPECT_EQ(merged.percentile(99), serial.percentile(99));
  }
}

TEST(AccumulatorMerge, EmptyIsAnIdentity) {
  Accumulator a;
  a.add(3.0);
  a.add(5.0);
  const double mean = a.mean(), sd = a.stddev();
  a.merge(Accumulator());  // right identity
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  EXPECT_EQ(a.stddev(), sd);
  Accumulator b;
  b.merge(a);  // left identity
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean);
  EXPECT_EQ(b.stddev(), sd);
}

TEST(AccumulatorCap, BoundsRetainedSamplesButKeepsMomentsExact) {
  Accumulator capped(10);
  Accumulator exact;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform01() * 100;
    capped.add(x);
    exact.add(x);
  }
  EXPECT_EQ(capped.samples().size(), 10u);
  EXPECT_FALSE(capped.retains_all_samples());
  EXPECT_EQ(capped.count(), 200u);
  EXPECT_DOUBLE_EQ(capped.mean(), exact.mean());
  EXPECT_DOUBLE_EQ(capped.stddev(), exact.stddev());
  EXPECT_EQ(capped.min(), exact.min());
  EXPECT_EQ(capped.max(), exact.max());
}

TEST(AccumulatorCap, CappedMergeKeepsMomentsExact) {
  // Once the cap discards samples, merge falls back to Chan's formula:
  // moments must still match the serial run to floating-point accuracy.
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform01() * 50 - 25);

  Accumulator serial;
  for (const double x : xs) serial.add(x);

  Accumulator left(8), right(8);
  for (std::size_t i = 0; i < xs.size(); ++i)
    (i < xs.size() / 2 ? left : right).add(xs[i]);
  left.merge(right);

  EXPECT_EQ(left.count(), serial.count());
  EXPECT_NEAR(left.mean(), serial.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), serial.stddev(), 1e-9);
  EXPECT_EQ(left.min(), serial.min());
  EXPECT_EQ(left.max(), serial.max());
  EXPECT_LE(left.samples().size(), 8u);
}

// --- RepeatedResult monoid ---------------------------------------------------

FaultScenario quick_scenario() {
  FaultScenario scenario;
  scenario.warmup = 300;
  scenario.burst = 6;
  scenario.observation = 2500;
  scenario.drain = 2000;
  return scenario;
}

HarnessConfig quick_config(std::uint64_t seed) {
  HarnessConfig config;
  config.n = 3;
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = seed;
  return config;
}

TEST(RepeatedResult, MergeEqualsSequentialAdds) {
  std::vector<ExperimentResult> results;
  for (std::uint64_t s = 0; s < 6; ++s)
    results.push_back(
        run_fault_experiment(quick_config(8800 + s), quick_scenario()));

  RepeatedResult serial;
  for (const ExperimentResult& r : results) serial.add(r);

  RepeatedResult left, right;
  for (std::size_t i = 0; i < results.size(); ++i)
    (i < 3 ? left : right).add(results[i]);
  left.merge(right);

  EXPECT_EQ(left.trials, serial.trials);
  EXPECT_EQ(left.stabilized, serial.stabilized);
  EXPECT_EQ(left.starved, serial.starved);
  EXPECT_EQ(left.latency.mean(), serial.latency.mean());
  EXPECT_EQ(left.latency.stddev(), serial.latency.stddev());
  EXPECT_EQ(left.total_messages.mean(), serial.total_messages.mean());
  EXPECT_EQ(left.events.sum(), serial.events.sum());

  RepeatedResult identity;
  identity.merge(serial);
  EXPECT_EQ(identity.trials, serial.trials);
  EXPECT_EQ(identity.latency.mean(), serial.latency.mean());
}

// --- Engine determinism across jobs ------------------------------------------

SpecGrid small_grid() {
  SpecGrid grid;
  grid.add("burst", quick_config(100), quick_scenario(), 8);
  FaultScenario quiet = quick_scenario();
  quiet.burst = 0;
  grid.add("quiet", quick_config(200), quiet, 4);
  return grid;
}

TEST(ExperimentEngine, ResultsIdenticalForAnyJobsCount) {
  const GridResult serial =
      ExperimentEngine(EngineOptions{.jobs = 1}).run(small_grid());
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const GridResult parallel =
        ExperimentEngine(EngineOptions{.jobs = jobs}).run(small_grid());
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t c = 0; c < serial.cells.size(); ++c) {
      const RepeatedResult& a = serial.cells[c].result;
      const RepeatedResult& b = parallel.cells[c].result;
      EXPECT_EQ(a.trials, b.trials);
      EXPECT_EQ(a.stabilized, b.stabilized);
      // Bitwise equality of derived statistics, not approximate.
      EXPECT_EQ(a.latency.mean(), b.latency.mean());
      EXPECT_EQ(a.latency.stddev(), b.latency.stddev());
      EXPECT_EQ(a.latency.percentile(99), b.latency.percentile(99));
      EXPECT_EQ(a.total_messages.sum(), b.total_messages.sum());
      EXPECT_EQ(a.cs_entries.mean(), b.cs_entries.mean());
      EXPECT_EQ(a.events.sum(), b.events.sum());
    }
  }
}

TEST(ExperimentEngine, JsonByteIdenticalAcrossJobsModuloVolatileLines) {
  // Satellite guarantee: the whole serialized artifact — every digit of
  // every statistic — matches between --jobs 1 and --jobs 8; only lines
  // carrying wall-clock time or the jobs count may differ.
  const GridResult serial =
      ExperimentEngine(EngineOptions{.jobs = 1}).run(small_grid());
  const GridResult parallel =
      ExperimentEngine(EngineOptions{.jobs = 8}).run(small_grid());
  const std::string a =
      report::strip_volatile_lines(grid_to_json("engine_smoke", serial).dump());
  const std::string b = report::strip_volatile_lines(
      grid_to_json("engine_smoke", parallel).dump());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"cells\""), std::string::npos);
  // The stripped form really dropped the volatile fields...
  EXPECT_EQ(a.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(a.find("\"jobs\""), std::string::npos);
  EXPECT_EQ(a.find("observe_ns_per_event"), std::string::npos);
  EXPECT_EQ(a.find("events_per_sec"), std::string::npos);
  // ...which ARE present in the full dump.
  EXPECT_NE(grid_to_json("engine_smoke", serial).dump().find("wall_seconds"),
            std::string::npos);
}

TEST(ExperimentEngine, MatchesDirectSerialLoop) {
  // The engine's one-cell result equals a hand-written serial loop over
  // consecutive seeds — the refactor changed the plumbing, not the numbers.
  RepeatedResult loop;
  for (std::uint64_t s = 0; s < 5; ++s)
    loop.add(run_fault_experiment(quick_config(100 + s), quick_scenario()));

  const RepeatedResult engine =
      repeat_fault_experiment(quick_config(100), quick_scenario(), 5,
                              /*jobs=*/4);
  EXPECT_EQ(engine.trials, loop.trials);
  EXPECT_EQ(engine.stabilized, loop.stabilized);
  EXPECT_EQ(engine.latency.mean(), loop.latency.mean());
  EXPECT_EQ(engine.latency.stddev(), loop.latency.stddev());
  EXPECT_EQ(engine.total_messages.sum(), loop.total_messages.sum());
  EXPECT_EQ(engine.events.sum(), loop.events.sum());
}

TEST(ExperimentEngine, SampleCapBoundsEngineMemory) {
  SpecGrid grid;
  grid.add("capped", quick_config(300), quick_scenario(), 12);
  const GridResult result =
      ExperimentEngine(EngineOptions{.jobs = 2, .sample_cap = 4}).run(grid);
  const RepeatedResult& r = result.cell("capped").result;
  EXPECT_EQ(r.trials, 12u);
  EXPECT_EQ(r.cs_entries.count(), 12u);
  // Every accumulator honours the cap.
  const std::pair<const char*, const Accumulator*> all[] = {
      {"latency", &r.latency},
      {"total_messages", &r.total_messages},
      {"wrapper_messages", &r.wrapper_messages},
      {"protocol_messages", &r.protocol_messages},
      {"violations", &r.violations},
      {"safety_violations", &r.safety_violations},
      {"cs_entries", &r.cs_entries},
      {"max_wait", &r.max_wait},
      {"events", &r.events},
      {"faults", &r.faults},
      {"availability", &r.availability},
      {"reconverge", &r.reconverge}};
  for (const auto& [name, acc] : all) {
    EXPECT_GT(acc->count(), 4u) << name;
    EXPECT_LE(acc->samples().size(), 4u) << name;
  }
}

TEST(ExperimentEngine, CustomTrialCallableRuns) {
  RunSpec spec;
  spec.name = "custom";
  spec.config = quick_config(900);
  spec.scenario = quick_scenario();
  spec.trials = 4;
  // Thread-safe custom trial: derives everything from its arguments.
  spec.trial = [](const HarnessConfig& config, const FaultScenario&) {
    ExperimentResult r;
    r.report.stabilized = true;
    r.report.faults_injected = true;
    r.report.latency = static_cast<SimTime>(config.seed);
    return r;
  };
  const CellResult cell =
      ExperimentEngine(EngineOptions{.jobs = 2}).run_cell(spec);
  EXPECT_EQ(cell.result.trials, 4u);
  EXPECT_EQ(cell.result.stabilized, 4u);
  // Seeds 900..903 in seed order -> mean 901.5 exactly.
  EXPECT_EQ(cell.result.latency.mean(), 901.5);
  EXPECT_EQ(cell.base_seed, 900u);
}

// --- SpecGrid ----------------------------------------------------------------

TEST(SpecGrid, KeepsInsertionOrderAndLookup) {
  SpecGrid grid;
  grid.add("b", quick_config(1), quick_scenario(), 2);
  grid.add("a", quick_config(2), quick_scenario(), 3);
  EXPECT_EQ(grid.cells().size(), 2u);
  EXPECT_EQ(grid.cells()[0].name, "b");
  EXPECT_EQ(grid.cells()[1].name, "a");
  EXPECT_EQ(grid.total_trials(), 5u);

  const GridResult result =
      ExperimentEngine(EngineOptions{.jobs = 1}).run(grid);
  EXPECT_EQ(result.cells[0].name, "b");  // cell order preserved
  EXPECT_EQ(result.cell("a").result.trials, 3u);
  EXPECT_EQ(result.cell("b").result.trials, 2u);
}

// --- config digest -----------------------------------------------------------

TEST(ConfigDigest, StableAndSensitive) {
  const HarnessConfig base = quick_config(1);
  const std::string digest = config_digest(base);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(config_digest(base), digest);  // deterministic

  // Seed is deliberately NOT part of the digest (recorded separately).
  HarnessConfig reseeded = base;
  reseeded.seed = 999;
  EXPECT_EQ(config_digest(reseeded), digest);

  // Every behaviour-relevant knob must move the digest.
  HarnessConfig n = base;
  n.n = 7;
  EXPECT_NE(config_digest(n), digest);
  HarnessConfig algo = base;
  algo.algorithm = "lamport";
  EXPECT_NE(config_digest(algo), digest);
  HarnessConfig bare = base;
  bare.wrapped = false;
  EXPECT_NE(config_digest(bare), digest);
  HarnessConfig period = base;
  period.wrapper.resend_period = 999;
  EXPECT_NE(config_digest(period), digest);
  HarnessConfig mixed = base;
  mixed.per_process_algorithms = {"lamport", "lamport",
                                  "lamport"};
  EXPECT_NE(config_digest(mixed), digest);
}

// --- Report layer ------------------------------------------------------------

TEST(Report, JsonPreservesKeyOrderAndRoundTripsDoubles) {
  report::Json doc = report::Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 0.1;
  doc["nested"] = report::Json::object();
  doc["nested"]["x"] = true;
  const std::string text = doc.dump(0);
  EXPECT_LT(text.find("zebra"), text.find("alpha"));
  EXPECT_NE(text.find("0.1"), std::string::npos);  // shortest round-trip
  EXPECT_EQ(text, "{\"zebra\":1,\"alpha\":0.1,\"nested\":{\"x\":true}}");
}

TEST(Report, BenchNameAndDefaultPath) {
  EXPECT_EQ(report::bench_name_from_program(
                "/path/to/build/bench/bench_stabilization_time"),
            "stabilization_time");
  EXPECT_EQ(report::bench_name_from_program("explorer"), "explorer");
  EXPECT_EQ(report::default_bench_json_path("bench/bench_throughput"),
            "BENCH_throughput.json");
}

TEST(Report, StripVolatileLinesDropsOnlyVolatileKeys) {
  const std::string pretty =
      "{\n  \"jobs\": 8,\n  \"mean\": 3.5,\n  \"wall_seconds\": 1.2,\n"
      "  \"observe_ns_per_event\": 41.5,\n  \"events_per_sec\": 1e6,\n"
      "  \"count\": 7\n}\n";
  const std::string stripped = report::strip_volatile_lines(pretty);
  EXPECT_EQ(stripped.find("jobs"), std::string::npos);
  EXPECT_EQ(stripped.find("wall"), std::string::npos);
  EXPECT_EQ(stripped.find("observe_ns_per_event"), std::string::npos);
  EXPECT_EQ(stripped.find("events_per_sec"), std::string::npos);
  EXPECT_NE(stripped.find("mean"), std::string::npos);
  EXPECT_NE(stripped.find("count"), std::string::npos);
}

}  // namespace
}  // namespace graybox::core
