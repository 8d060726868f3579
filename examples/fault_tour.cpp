// A guided tour of the Section 3.1 fault model.
//
//   $ ./fault_tour [--seed=9]
//
// For each fault kind the paper allows — message loss, duplication,
// corruption, reordering, spurious messages, arbitrary process-state
// corruption, channel wipes — this example injects a burst of exactly that
// kind into a wrapped Ricart-Agrawala system, then reports the violation
// window and the stabilization verdict, plus a tail of the event trace for
// the most interesting case.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"

int main(int argc, char** argv) {
  using namespace graybox;
  using namespace graybox::core;

  Flags flags(argc, argv, {{"seed", "experiment seed (default 9)"}});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 9));

  const net::FaultKind kinds[] = {
      net::FaultKind::kMessageDrop,     net::FaultKind::kMessageDuplicate,
      net::FaultKind::kMessageCorrupt,  net::FaultKind::kMessageReorder,
      net::FaultKind::kSpuriousMessage, net::FaultKind::kProcessCorrupt,
      net::FaultKind::kChannelClear};

  std::cout << "fault_tour: one fault kind at a time against a wrapped "
               "4-process Ricart-Agrawala system\n\n";

  Table table({"fault kind", "injected", "violations", "violation window",
               "verdict"});
  for (const auto kind : kinds) {
    HarnessConfig config;
    config.n = 4;
    config.algorithm = "ricart-agrawala";
    config.wrapped = true;
    config.wrapper.resend_period = 15;
    config.client.think_mean = 30;
    config.client.eat_mean = 6;
    config.seed = seed;
    config.trace_capacity = kind == net::FaultKind::kProcessCorrupt ? 64 : 0;

    SystemHarness h(config);
    h.start();
    h.run_for(800);
    // Message faults need traffic to bite on: wait for a busy instant
    // (reordering in particular needs a channel holding two messages).
    while (h.network().in_flight() < 5 && h.scheduler().now() < 5000) {
      h.run_for(1);
    }
    h.faults().burst(6, net::FaultMix::only(kind));
    h.run_for(6000);
    h.drain(4000);

    const StabilizationReport report = h.stabilization_report();
    const std::uint64_t violations = h.monitors().total_violations();
    std::string window = "-";
    if (const SimTime last = h.monitors().last_violation(); last != kNever) {
      window = "[" + std::to_string(report.last_fault) + ", " +
               std::to_string(last) + "]";
    }
    table.row(net::to_string(kind), h.faults().total_injected(), violations,
              window, report.stabilized ? "stabilized" : "FAILED");

    if (config.trace_capacity > 0) {
      std::cout << "trace tail around the " << net::to_string(kind)
                << " burst:\n";
      h.events().dump(std::cout, 8);
      std::cout << "\n";
    }
  }
  table.print(std::cout);

  std::cout << "\nEvery row stabilizes: the wrapper needs no knowledge of "
               "which fault hit, only the Lspec-level observables — that is "
               "what makes it a graybox component.\n";
  return 0;
}
