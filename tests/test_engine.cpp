// ExperimentEngine and its substrate: the worker pool, the config digest,
// and — the load-bearing guarantee — that the seed-order fold makes
// aggregate results and JSON artifacts identical for every --jobs value
// (serial == parallel, bit for bit, modulo wall-clock fields).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness_flags.hpp"

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

// --- Engine determinism across jobs ------------------------------------------

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
  EXPECT_EQ(result.cell("a").base_seed, 2u);  // seeds 2, 3, 4
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
  mixed.algorithm = "lamport+lamport+lamport";
  EXPECT_NE(config_digest(mixed), digest);
}

// --- harness flags -----------------------------------------------------------

TEST(HarnessFlags, WrittenSystemReadsBackToTheSameDigest) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = "ra+lamport+cr[lease=4]+ra";
  config.wrapped = false;
  config.level1 = true;
  config.wrapper.resend_period = 33;
  config.client.think_mean = 0.1;
  config.client.eat_mean = 7.25;
  config.seed = 9;
  const std::vector<std::string> args = harness_flags(config);
  EXPECT_EQ(args.front(), "--n=4");
  EXPECT_EQ(args[1],
            "--algorithm=ricart-agrawala[monotone_views=0]+"
            "lamport[head_only_release=0]+carvalho-roucairol[lease=4]+"
            "ricart-agrawala[monotone_views=0]");
  EXPECT_EQ(args[5], "--think=0.1");  // shortest round-trip form

  // Read back onto other defaults: every written knob overrides its
  // default, and the seed, which the system leaves out, is not written.
  HarnessConfig defaults;
  defaults.seed = 5;
  std::vector<const char*> argv{"prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data(),
                    with_harness_flags(defaults));
  const HarnessConfig back = harness_from_flags(flags, defaults);
  EXPECT_EQ(config_digest(back), config_digest(config));
  EXPECT_EQ(back.client.think_mean, 0.1);
  EXPECT_EQ(back.seed, 5u);
  // Each help text prints the default it falls back to.
  EXPECT_EQ(with_harness_flags(defaults).at("think"),
            "client mean think time (default 60)");
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
