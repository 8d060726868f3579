// E7 — stabilization time (Theorem 8 quantified).
//
// The paper proves that wrapped everywhere-implementations stabilize but
// reports no measurements. This bench produces the numbers the evaluation
// would have shown: stabilization latency (last fault -> last TME Spec
// violation) as a function of system size and of fault burst size, for both
// programs, wrapped vs bare. The whole grid runs through ExperimentEngine:
// trials fan out across --jobs cores and the aggregates land in
// BENCH_stabilization_time.json.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

HarnessConfig config_for(const std::string& algo, std::size_t n, bool wrapped) {
  HarnessConfig config;
  config.n = n;
  config.algorithm = algo;
  config.wrapped = wrapped;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 40;
  config.client.eat_mean = 8;
  config.seed = 9000;
  return config;
}

FaultScenario scenario_for(std::size_t burst) {
  FaultScenario scenario;
  scenario.warmup = 600;
  scenario.burst = burst;
  scenario.mix = net::FaultMix::all();
  scenario.observation = 9000;
  scenario.drain = 6000;
  return scenario;
}

std::string stab_cell(const RepeatedResult& r) {
  return std::to_string(r.stabilized) + "/" + std::to_string(r.trials);
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

  const std::size_t sizes[] = {2, 3, 4, 6, 8, 10, 12, 16, 24};
  const std::size_t bursts[] = {2, 5, 10, 20, 40, 80};
  const std::size_t bare_bursts[] = {10, 40, 80};
  const std::string algos[] = {"ricart-agrawala", "lamport"};

  SpecGrid grid;
  for (const std::string& algo : algos) {
    for (const std::size_t n : sizes) {
      grid.add("by_n/" + std::string(short_name(algo)) +
                   "/n=" + std::to_string(n),
               config_for(algo, n, true), scenario_for(10), trials);
    }
    for (const std::size_t burst : bursts) {
      grid.add("by_burst/" + std::string(short_name(algo)) +
                   "/burst=" + std::to_string(burst),
               config_for(algo, 5, true), scenario_for(burst), trials);
    }
    for (const std::size_t burst : bare_bursts) {
      FaultScenario scenario = scenario_for(burst);
      // Losses are what wedge a bare system (Section 4): drop-only mix.
      scenario.mix = net::FaultMix::only(net::FaultKind::kMessageDrop)
                         .with(net::FaultKind::kChannelClear);
      grid.add("bare/" + std::string(short_name(algo)) +
                   "/burst=" + std::to_string(burst),
               config_for(algo, 5, false), scenario, trials);
    }
  }

  const GridResult result = engine.run(grid);

  std::cout << "E7: stabilization latency after a mixed fault burst ("
            << trials << " trials per cell, " << result.jobs << " jobs)\n\n";

  std::cout << "Latency vs system size (burst = 10 faults), wrapped:\n\n";
  Table by_n({"n", "ra stabilized", "ra latency mean±sd", "lamport stabilized",
              "lamport latency mean±sd"});
  for (const std::size_t n : sizes) {
    const RepeatedResult& ra =
        result.cell("by_n/ra/n=" + std::to_string(n)).result;
    const RepeatedResult& lam =
        result.cell("by_n/lamport/n=" + std::to_string(n)).result;
    by_n.row(n, stab_cell(ra), mean_pm_stddev(ra.latency, 0), stab_cell(lam),
             mean_pm_stddev(lam.latency, 0));
  }
  by_n.print(std::cout);

  std::cout << "\nLatency vs burst size (n = 5), wrapped:\n\n";
  Table by_burst({"burst", "ra stabilized", "ra latency mean±sd",
                  "lamport stabilized", "lamport latency mean±sd"});
  for (const std::size_t burst : bursts) {
    const RepeatedResult& ra =
        result.cell("by_burst/ra/burst=" + std::to_string(burst)).result;
    const RepeatedResult& lam =
        result.cell("by_burst/lamport/burst=" + std::to_string(burst)).result;
    by_burst.row(burst, stab_cell(ra), mean_pm_stddev(ra.latency, 0),
                 stab_cell(lam), mean_pm_stddev(lam.latency, 0));
  }
  by_burst.print(std::cout);

  std::cout << "\nBare baseline (n = 5): how often luck suffices without "
               "the wrapper, as the loss-heavy adversary strengthens:\n\n";
  Table bare({"algorithm", "burst 10", "burst 40", "burst 80"});
  for (const std::string& algo : algos) {
    std::vector<std::string> cells;
    for (const std::size_t burst : bare_bursts) {
      const RepeatedResult& r =
          result
              .cell("bare/" + std::string(short_name(algo)) +
                    "/burst=" + std::to_string(burst))
              .result;
      cells.push_back(stab_cell(r) + " stabilized");
    }
    bare.row(algo, cells[0], cells[1], cells[2]);
  }
  bare.print(std::cout);

  std::cout << "\nExpected shape: wrapped cells stabilize in EVERY trial at "
               "every n and burst size (Theorem 8), with latency growing "
               "mildly in both. Bare systems survive most RANDOM bursts by "
               "luck — ongoing requests double as repair traffic — but they "
               "carry no guarantee: some trials starve, and the scripted "
               "Section 4 loss pattern (bench_deadlock_recovery) wedges "
               "them deterministically. The wrapper converts 'usually "
               "recovers' into 'always recovers'.\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
