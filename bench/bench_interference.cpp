// E6 — interference freedom (paper Lemma 6): "Lspec [] W everywhere
// implements Lspec".
//
// Executable reading: in fault-free runs, adding the wrapper must not
// change the system's observable correctness or schedule — zero TME Spec
// violations, statistically identical CS entries and protocol message
// counts — and its own cost is only the resend traffic, quantified per
// delta. Each configuration runs `trials` seeds through the engine so the
// comparison is distributional rather than a single lucky schedule.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

HarnessConfig config_for(const std::string& algo, bool wrapped, SimTime delta,
                         std::uint64_t seed) {
  HarnessConfig config;
  config.n = 5;
  config.algorithm = algo;
  config.wrapped = wrapped;
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
  Flags flags(argc, argv, with_engine_flags({{"seed", "base seed (default 2026)"}}));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2026));
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 10));
  const ExperimentEngine engine(engine_options_from_flags(flags));

  // Fault-free: the whole run is "warmup", then drain — burst of zero.
  FaultScenario scenario;
  scenario.warmup = 10000;
  scenario.burst = 0;
  scenario.observation = 0;
  scenario.drain = 4000;

  const SimTime deltas[] = {5, 25, 100, 400};
  const std::string algos[] = {"ricart-agrawala", "lamport"};

  SpecGrid grid;
  for (const std::string& algo : algos) {
    grid.add(std::string(short_name(algo)) + "/bare",
             config_for(algo, false, 0, seed), scenario, trials);
    for (const SimTime delta : deltas) {
      grid.add(std::string(short_name(algo)) + "/delta=" +
                   std::to_string(delta),
               config_for(algo, true, delta, seed), scenario, trials);
    }
  }
  const GridResult result = engine.run(grid);

  std::cout << "E6: interference freedom (Lemma 6) — fault-free, wrapped vs "
               "bare, identical seeds (" << trials << " trials per cell, "
            << result.jobs << " jobs)\n\n";

  for (const std::string& algo : algos) {
    Table table({"configuration", "safety violations", "CS entries mean±sd",
                 "protocol msgs mean±sd", "wrapper msgs mean±sd",
                 "max wait mean±sd"});
    auto row = [&](const std::string& label, const std::string& cell_name) {
      const RepeatedResult& r = result.cell(cell_name).result;
      table.row(label,
                r.safety_violations.sum() == 0.0 ? "none" : "SOME",
                mean_pm_stddev(r.cs_entries, 0),
                mean_pm_stddev(r.protocol_messages, 0),
                mean_pm_stddev(r.wrapper_messages, 0),
                mean_pm_stddev(r.max_wait, 0));
    };
    row("bare", std::string(short_name(algo)) + "/bare");
    for (const SimTime delta : deltas) {
      row("W' delta=" + std::to_string(delta),
          std::string(short_name(algo)) + "/delta=" + std::to_string(delta));
    }
    std::cout << algo << ":\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout
      << "Expected shape (Lemma 6): every row is violation-free; CS entry "
         "counts stay within a fraction of a percent of the bare run (the "
         "wrapper adds no behaviour Lspec does not already allow — resends "
         "only perturb timing); the only cost is wrapper resend traffic, "
         "which shrinks as delta grows. Note: extra wrapper resends induce "
         "extra replies, so protocol messages exceed the bare count at "
         "small delta — replies are Lspec traffic the spec already mandates "
         "on request receipt.\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
