// E3 — the Section 4 deadlock scenario, end to end.
//
// "Suppose processes j and k have both requested CS [and] REQj and REQk are
//  both dropped from the channels ... the state of M has a deadlock."
//
// Part 1 runs the scripted scenario bare and wrapped for both programs:
// bare systems starve forever; the identical wrapper recovers both.
// Part 2 sweeps the W' timeout delta and reports time-to-recovery, showing
// the linear dependence of recovery latency on the resend period. Every
// cell is an ordinary engine cell; no client issues a request, so ME2's
// longest wait (max_wait) is the wait of the later of the two wedged
// requests.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

FaultScenario deadlock_scenario() {
  FaultScenario scenario;
  scenario.warmup = 100;
  scenario.observation = 8000;
  scenario.drain = 6000;
  scenario.scripted_fault = [](SystemHarness& h) {
    h.process(0).request_cs();
    h.process(1).request_cs();
    // Channel clears through the injector, which skips empty channels and
    // self-channels and records each clear it applies.
    for (ProcessId to = 0; to < h.network().size(); ++to) {
      for (const ProcessId from : {ProcessId{0}, ProcessId{1}}) {
        h.faults().inject_targeted(
            {.code = net::FaultKind::kChannelClear, .a = from, .b = to});
      }
    }
  };
  return scenario;
}

HarnessConfig config_for(const std::string& algo, bool wrapped,
                         SimTime period) {
  HarnessConfig config;
  config.n = 3;
  config.algorithm = algo;
  config.wrapped = wrapped;
  config.wrapper.resend_period = period;
  config.client.wants_cs = false;  // scripted requests only
  config.seed = 7;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, with_engine_flags());
  const ExperimentEngine engine(engine_options_from_flags(flags));

  const SimTime deltas[] = {0, 5, 10, 25, 50, 100, 200, 400};
  const std::string algos[] = {"ricart-agrawala", "lamport"};

  SpecGrid grid;
  for (const std::string& algo : algos) {
    const std::string stem =
        algo == "ricart-agrawala" ? "ra" : "lamport";
    for (const bool wrapped : {false, true}) {
      // The scenario is fully scripted, so one trial is the experiment.
      grid.add("verdict/" + stem + (wrapped ? "/wrapped" : "/bare"),
               config_for(algo, wrapped, 20), deadlock_scenario(), 1);
    }
    for (const SimTime delta : deltas) {
      grid.add("sweep/" + stem + "/delta=" + std::to_string(delta),
               config_for(algo, true, delta), deadlock_scenario(), 1);
    }
  }
  const GridResult result = engine.run(grid);

  std::cout << "E3: Section 4 deadlock — both requests dropped from the "
               "channels (" << result.jobs << " jobs)\n\n";

  Table verdicts({"algorithm", "wrapper", "outcome", "starvation at end",
                  "CS entries"});
  for (const std::string& algo : algos) {
    const std::string stem =
        algo == "ricart-agrawala" ? "ra" : "lamport";
    for (const bool wrapped : {false, true}) {
      const RepeatedResult& r =
          result.cell("verdict/" + stem + (wrapped ? "/wrapped" : "/bare"))
              .result;
      verdicts.row(algo, wrapped ? "W' (delta=20)" : "none",
                   r.all_stabilized() ? "recovered" : "DEADLOCKED forever",
                   !r.all_stabilized(),
                   static_cast<std::uint64_t>(r.cs_entries.sum()));
    }
  }
  verdicts.print(std::cout);

  std::cout << "\nRecovery latency vs wrapper timeout delta (ME2's longest "
               "wait: the later wedged request's wait for the CS):\n\n";
  Table sweep({"delta", "ricart-agrawala", "lamport"});
  for (const SimTime delta : deltas) {
    auto cell = [&](const char* stem) {
      const RepeatedResult& r =
          result
              .cell(std::string("sweep/") + stem +
                    "/delta=" + std::to_string(delta))
              .result;
      return r.all_stabilized()
                 ? std::to_string(
                       static_cast<std::uint64_t>(r.max_wait.mean()))
                 : std::string("never");
    };
    sweep.row(delta, cell("ra"), cell("lamport"));
  }
  sweep.print(std::cout);

  std::cout << "\nExpected shape: bare rows deadlock, wrapped rows recover "
               "(paper Theorem 8); recovery latency grows roughly linearly "
               "with delta (Section 4, 'Implementation of W').\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
