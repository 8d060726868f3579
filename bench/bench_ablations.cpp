// E9 — ablations of the design decisions DESIGN.md calls out.
//
//  A1  Direct vs monotone view updates (Ricart-Agrawala). A max() update
//      looks harmless — it is what one writes to be "safe" against stale
//      messages — but it can never heal a corrupted-HIGH view, so
//      stabilization under process corruption is lost.
//  A2  Robust stale-entry retirement vs literal head-only dequeue
//      (Lamport). The paper's Insert modification corrects entries when a
//      NEW request arrives; retiring on any fresher message from the owner
//      extends that to owners who stay silent. The literal variant wedges.
//  A3  Refined vs unrefined wrapper (Section 4). The refined W sends only
//      to peers whose view is stale; the unrefined W sends to all. Both
//      stabilize; the refinement saves traffic.
//  A4  Client poll cadence vs recovery from process corruption.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "me/lamport.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

HarnessConfig base_config(std::string algo, std::uint64_t seed) {
  HarnessConfig config;
  config.n = 4;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = 35;
  config.client.eat_mean = 7;
  config.seed = seed;
  return config;
}

FaultScenario corruption_scenario() {
  FaultScenario scenario;
  scenario.warmup = 500;
  scenario.burst = 8;
  scenario.mix = net::FaultMix::process_only();
  scenario.observation = 7000;
  scenario.drain = 5000;
  return scenario;
}

std::string stab_cell(const RepeatedResult& r) {
  return std::to_string(r.stabilized) + "/" + std::to_string(r.trials);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, with_engine_flags());
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 25));
  const ExperimentEngine engine(engine_options_from_flags(flags));

  const SimTime polls[] = {1, 2, 5, 10, 25, 50};

  SpecGrid grid;
  for (const bool monotone : {false, true}) {
    const HarnessConfig config =
        base_config(monotone ? "ricart-agrawala[monotone_views=1]"
                             : "ricart-agrawala[monotone_views=0]",
                    3000);
    grid.add(monotone ? "a1/monotone" : "a1/direct", config,
             corruption_scenario(), trials);
  }
  for (const bool head_only : {false, true}) {
    HarnessConfig config = base_config(head_only
                                           ? "lamport[head_only_release=1]"
                                           : "lamport[head_only_release=0]",
                                       4000);
    config.client.wants_cs = false;  // scripted request only

    FaultScenario scenario;
    scenario.warmup = 200;
    scenario.observation = 8000;
    scenario.drain = 6000;
    scenario.scripted_fault = [](SystemHarness& h) {
      // Plant a fabricated earliest queue entry for process 3 (which
      // never requests, so no release will ever dequeue it) at process 0,
      // then let 0 request. Timestamp {0,3} is lt every real request.
      auto& p0 = dynamic_cast<me::LamportMe&>(h.process(0));
      p0.fault_insert_queue_entry(3, clk::Timestamp{0, 3});
      h.process(0).request_cs();
    };
    // Deterministic scripted wedge: one trial is the whole experiment.
    grid.add(head_only ? "a2/head_only" : "a2/default", config, scenario, 1);
  }
  for (const bool unrefined : {false, true}) {
    HarnessConfig config = base_config("ricart-agrawala", 5000);
    config.wrapper.unrefined_send_all = unrefined;
    FaultScenario scenario;
    scenario.warmup = 500;
    scenario.burst = 10;
    scenario.mix = net::FaultMix::all();
    scenario.observation = 7000;
    scenario.drain = 5000;
    grid.add(unrefined ? "a3/unrefined" : "a3/refined", config, scenario,
             trials);
  }
  for (const SimTime poll : polls) {
    HarnessConfig config = base_config("ricart-agrawala", 6000);
    config.client.poll_interval = poll;
    grid.add("a4/poll=" + std::to_string(poll), config, corruption_scenario(),
             trials);
  }

  const GridResult result = engine.run(grid);

  std::cout << "E9: ablations (" << trials << " seeds per cell, "
            << result.jobs << " jobs)\n\n";

  {
    std::cout << "A1: Ricart-Agrawala view updates under process "
                 "corruption\n\n";
    Table table({"view update rule", "stabilized", "starved runs"});
    for (const bool monotone : {false, true}) {
      const RepeatedResult& r =
          result.cell(monotone ? "a1/monotone" : "a1/direct").result;
      table.row(monotone ? "monotone max() (ablation)" : "direct assignment",
                stab_cell(r), r.starved);
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  {
    std::cout << "A2: Lamport queue-entry retirement, scripted corrupted "
                 "entry for a silent process\n\n";
    Table table({"retirement rule", "outcome", "CS entries"});
    for (const bool head_only : {false, true}) {
      const RepeatedResult& r =
          result.cell(head_only ? "a2/head_only" : "a2/default").result;
      table.row(head_only ? "head-only dequeue (ablation)"
                          : "stale retirement (default)",
                r.stabilized == r.trials ? "recovered" : "WEDGED forever",
                static_cast<std::uint64_t>(r.cs_entries.sum()));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  {
    std::cout << "A3: refined vs unrefined wrapper, mixed fault bursts\n\n";
    Table table({"wrapper", "stabilized", "wrapper msgs mean±sd",
                 "latency mean±sd"});
    for (const bool unrefined : {false, true}) {
      const RepeatedResult& r =
          result.cell(unrefined ? "a3/unrefined" : "a3/refined").result;
      table.row(unrefined ? "unrefined (send to all k)"
                          : "refined (stale peers only)",
                stab_cell(r), mean_pm_stddev(r.wrapper_messages, 0),
                mean_pm_stddev(r.latency, 0));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  {
    std::cout << "A4: client poll cadence (the 'everywhere' Client Spec) "
                 "vs recovery from process corruption\n\n";
    Table table({"poll interval", "stabilized", "latency mean±sd",
                 "violations mean±sd"});
    for (const SimTime poll : polls) {
      const RepeatedResult& r =
          result.cell("a4/poll=" + std::to_string(poll)).result;
      table.row(poll, stab_cell(r), mean_pm_stddev(r.latency, 0),
                mean_pm_stddev(r.violations, 1));
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout
      << "Expected shape: A1 — direct assignment stabilizes all trials, "
         "monotone loses some to permanent false beliefs; A2 — default "
         "recovers, head-only wedges forever; A3 — both stabilize, the "
         "refined wrapper sends substantially fewer messages (the paper's "
         "rationale for the refinement); A4 — every cadence stabilizes "
         "(the wrapper timer is an independent recovery path), with "
         "stabilization latency growing as polls — the bound on how fast a "
         "corruption is noticed — get sparser. (Violation COUNTS are "
         "per-observed-snapshot, so denser polling also counts the same "
         "window more often.)\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
