// E4 — tuning W' (paper Section 4, "Implementation of W").
//
// "The timeout mechanism can be employed to tune the wrapper to decrease
//  the unnecessary repetitions of the request messages when the system is
//  in the consistent states."
//
// The sweep measures, per timeout delta:
//   * stabilization latency after a mixed fault burst (mean over trials);
//   * wrapper resend traffic during the faulty run;
//   * wrapper resend traffic in a fault-free run of the same length (the
//     "unnecessary repetitions" the quote is about).
//
// Expected shape: latency grows with delta; wrapper traffic falls roughly
// as 1/delta; fault-free traffic falls to ~0 once delta exceeds typical
// request-service times — the tuning knob the paper describes.
#include <cstdio>
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

HarnessConfig config_for(const std::string& algo, SimTime delta,
                         std::uint64_t seed) {
  HarnessConfig config;
  config.n = 5;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = delta;
  config.client.think_mean = 40;
  config.client.eat_mean = 8;
  config.seed = seed;
  return config;
}

const char* short_name(const std::string& algo) {
  return algo == "ricart-agrawala" ? "ra" : "lamport";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, with_engine_flags());
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 15));
  const ExperimentEngine engine(engine_options_from_flags(flags));

  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = 12;
  scenario.mix = net::FaultMix::all();
  scenario.observation = 8000;
  scenario.drain = 5000;

  FaultScenario clean = scenario;
  clean.burst = 0;

  const SimTime deltas[] = {0, 2, 5, 10, 25, 50, 100, 200, 400};
  const std::string algos[] = {"ricart-agrawala", "lamport"};

  SpecGrid grid;
  for (const std::string& algo : algos) {
    for (const SimTime delta : deltas) {
      const std::string stem =
          std::string(short_name(algo)) + "/delta=" + std::to_string(delta);
      grid.add("faulty/" + stem, config_for(algo, delta, 1000), scenario,
               trials);
      grid.add("quiet/" + stem, config_for(algo, delta, 1000), clean, trials);
    }
  }
  const GridResult result = engine.run(grid);

  std::cout << "E4: W' timeout sweep, " << trials
            << " trials per cell, burst of " << scenario.burst
            << " mixed faults (" << result.jobs << " jobs)\n\n";

  for (const std::string& algo : algos) {
    Table table({"delta", "stabilized", "latency mean±sd", "latency p95",
                 "wrapper msgs (faulty)", "wrapper msgs (fault-free)"});
    for (const SimTime delta : deltas) {
      const std::string stem =
          std::string(short_name(algo)) + "/delta=" + std::to_string(delta);
      const RepeatedResult& faulty = result.cell("faulty/" + stem).result;
      const RepeatedResult& quiet = result.cell("quiet/" + stem).result;

      char p95[32];
      std::snprintf(p95, sizeof p95, "%.0f", faulty.latency.percentile(95));
      table.row(delta,
                std::to_string(faulty.stabilized) + "/" +
                    std::to_string(faulty.trials),
                mean_pm_stddev(faulty.latency),
                p95,
                mean_pm_stddev(faulty.wrapper_messages, 0),
                mean_pm_stddev(quiet.wrapper_messages, 0));
    }
    std::cout << algo << ":\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Expected shape: every cell stabilizes; latency rises with "
               "delta while wrapper traffic falls ~1/delta; fault-free "
               "traffic approaches zero for large delta (the paper's "
               "'decrease the unnecessary repetitions').\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
