// explorer: a flag-driven experiment CLI over the whole library.
//
//   $ ./explorer --n=6 --algorithm=ra+lamport+ra+lamport+ra+lamport
//                --delta=25 --faults=20 --fault-kind=all --horizon=10000
//                --seed=7 --trace
//
// Builds a wrapped (or bare) TME system, runs warmup / fault burst /
// observation / drain, and prints the full monitoring report: per-monitor
// violations, stabilization verdict, message accounting, per-process
// service. Everything the bench binaries measure, on demand for one
// configuration — the "poke at it yourself" entry point.
#include <cstdlib>
#include <iostream>
#include <optional>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/harness_flags.hpp"
#include "core/stabilization.hpp"
#include "obs/causal_dag.hpp"
#include "obs/perfetto.hpp"

int main(int argc, char** argv) {
  using namespace graybox;
  using namespace graybox::core;

  // explorer's system defaults: one for every knob of the harness flags.
  const HarnessConfig defaults{
      .n = 5, .algorithm = "ricart-agrawala", .wrapped = true,
      .wrapper = {.resend_period = 20}, .level1 = false,
      .client = {.think_mean = 40, .eat_mean = 8}, .seed = 1};
  const Flags flags(
      argc, argv,
      with_harness_flags(
          defaults,
          {{"faults", "fault burst size after warmup (default 10)"},
           {"fault-kind",
            std::string(net::FaultMix::kSpellings) + " (default all)"},
           {"fault-load",
            "sustained load: mean ticks between arrivals on EACH "
            "message-fault stream (drop/duplicate/corrupt/spurious/"
            "process), running from warmup end to drain start "
            "(default 0 = off)"},
           {"crash-rate",
            "sustained load: mean ticks between process crashes "
            "(default 0 = off)"},
           {"downtime", "mean crash downtime ticks (default 150)"},
           {"partition-rate",
            "sustained load: mean ticks between partitions "
            "(default 0 = off)"},
           {"hold", "mean partition hold ticks (default 120)"},
           {"warmup", "fault-free prefix ticks (default 1000)"},
           {"horizon", "observation ticks after the burst (default 8000)"},
           {"drain", "drain ticks before judging liveness (default 5000)"},
           {"trace", "print the tail of the event trace"},
           {"perfetto",
            "write a Chrome/Perfetto trace_event JSON to this path "
            "(implies --trace)"},
           {"metrics", "write the run's metrics JSON to this path"},
           {"provenance",
            "track causal provenance: taint propagation and per-fault "
            "blast radius (default false; implied by --why and "
            "--blast-radius)"},
           {"why",
            "explain a recorded event: bus index, or 'violation' for "
            "the last retained monitor violation; prints the causal "
            "chain back to the fault injection (implies --provenance "
            "and a full-run trace)"},
           {"blast-radius",
            "print the per-fault blast-radius table (implies "
            "--provenance)"}}));

  HarnessConfig config = harness_from_flags(flags, defaults);
  if (flags.get_bool("trace", false)) config.trace_capacity = 2048;
  const std::string perfetto_path = flags.get("perfetto", "");
  const std::string metrics_path = flags.get("metrics", "");
  // A Perfetto export wants the whole run retained, not just a debug tail.
  if (!perfetto_path.empty() && config.trace_capacity < 1 << 20)
    config.trace_capacity = 1 << 20;
  if (!metrics_path.empty()) config.collect_metrics = true;
  const std::string why_arg = flags.get("why", "");
  const bool blast_radius = flags.get_bool("blast-radius", false);
  config.provenance = flags.get_bool("provenance", false) ||
                      !why_arg.empty() || blast_radius;
  // Explaining an event needs the whole run retained, like a Perfetto
  // export: a chain whose injection was evicted cannot be reconstructed.
  if (!why_arg.empty() && config.trace_capacity < 1 << 20)
    config.trace_capacity = 1 << 20;

  const std::string kind_name = flags.get("fault-kind", "all");
  const std::optional<net::FaultMix> mix = net::FaultMix::parse(kind_name);
  if (!mix) {
    std::cerr << "unknown --fault-kind '" << kind_name
              << "'; accepted: " << net::FaultMix::kSpellings << "\n";
    return 2;
  }

  const auto warmup = static_cast<SimTime>(flags.get_int("warmup", 1000));
  const auto horizon = static_cast<SimTime>(flags.get_int("horizon", 8000));
  const auto drain = static_cast<SimTime>(flags.get_int("drain", 5000));
  const auto burst = static_cast<std::size_t>(flags.get_int("faults", 10));

  // Sustained fault load (net::FaultProcess): continuous seeded streams
  // over the observation window, on top of (or instead of) the burst.
  const double load = flags.get_double("fault-load", 0);
  if (load > 0) {
    config.fault_process.drop_mean = load;
    config.fault_process.duplicate_mean = load;
    config.fault_process.corrupt_mean = load;
    config.fault_process.spurious_mean = load;
    config.fault_process.process_corrupt_mean = load;
  }
  config.fault_process.crash_mean = flags.get_double("crash-rate", 0);
  config.fault_process.downtime_mean = flags.get_double("downtime", 150);
  config.fault_process.partition_mean = flags.get_double("partition-rate", 0);
  config.fault_process.partition_hold_mean = flags.get_double("hold", 120);
  if (config.fault_process.any_enabled()) {
    // Keep the warmup fault-free and the drain quiet so the stabilization
    // verdict keeps its meaning.
    config.fault_process.start = warmup;
    config.fault_process.end = warmup + horizon;
  }

  SystemHarness system(config);
  system.start();

  system.run_for(warmup);
  if (burst > 0) system.faults().burst(burst, *mix);
  system.run_for(horizon);
  system.drain(drain);

  // --- report ------------------------------------------------------------
  const RunStats stats = system.stats();
  const StabilizationReport report = system.stabilization_report();

  std::cout << "configuration: n=" << config.n
            << " algorithm=" << algorithm_spec(config)
            << " wrapped=" << (config.wrapped ? "yes" : "no")
            << " level1=" << (config.level1 ? "yes" : "no")
            << " delta=" << config.wrapper.resend_period
            << " seed=" << config.seed << "\n";
  std::cout << "faults: " << system.faults().total_injected() << " of kind "
            << kind_name << " at t=" << warmup;
  if (config.fault_process.any_enabled()) {
    std::cout << " + sustained load (" << stats.faults_injected
              << " total arrivals, " << stats.crashes << " crashes, "
              << stats.partitions << " partitions)";
  }
  std::cout << "\n\n";

  Table monitors({"monitor", "violations", "first", "last"});
  for (const auto& m : system.monitors().monitors()) {
    monitors.row(m->name(), m->total_violations(),
                 m->clean() ? "-" : std::to_string(m->first_violation()),
                 m->clean() ? "-" : std::to_string(m->last_violation()));
  }
  monitors.row("StructuralSpec (program steps)",
               system.structural_monitor().violations().size(), "-", "-");
  monitors.print(std::cout);

  Table summary({"metric", "value"});
  summary.row("verdict", report.stabilized ? "STABILIZED" : "NOT STABILIZED");
  summary.row("stabilization latency", report.latency);
  summary.row("CS entries", stats.cs_entries);
  summary.row("requests issued", stats.requests_issued);
  summary.row("messages (protocol)",
              stats.messages_sent - stats.wrapper_messages);
  summary.row("messages (wrapper)", stats.wrapper_messages);
  if (config.level1) summary.row("level-1 corrections", stats.level1_corrections);
  summary.row("max CS wait", stats.me2_max_wait);
  summary.row("events executed", stats.events_executed);
  if (config.fault_process.any_enabled() || stats.crashes > 0 ||
      stats.partitions > 0) {
    summary.row("deliveries to crashed", stats.deliveries_to_crashed);
    summary.row("dropped by partition", stats.dropped_by_partition);
    summary.row("mean reconverge (ticks)",
                stats.reconverge_windows > 0
                    ? stats.reconverge_ticks_total / stats.reconverge_windows
                    : 0);
  }
  std::cout << "\n";
  summary.print(std::cout);

  Table procs({"process", "algorithm", "CS entries", "final state"});
  const std::vector<me::ResolvedProtocol> protocols =
      resolve_algorithm(config);
  for (ProcessId pid = 0; pid < config.n; ++pid) {
    procs.row(pid, std::string(protocols[pid].protocol->name),
              system.process(pid).cs_entries(),
              me::to_string(system.process(pid).state()));
  }
  std::cout << "\n";
  procs.print(std::cout);

  if (config.trace_capacity > 0) {
    std::cout << "\nevent trace tail:\n";
    system.events().dump(std::cout, 32);
  }
  if (blast_radius && system.provenance() != nullptr) {
    const obs::ProvenanceTracker& prov = *system.provenance();
    Table blast({"id", "fault", "origin", "injected", "procs tainted",
                 "msgs tainted", "violations", "containment"});
    for (const obs::BlastRadius& b : prov.blast()) {
      blast.row(b.id, net::to_string(static_cast<net::FaultKind>(b.code)),
                b.origin == kNoProcess ? std::string("-")
                                       : std::to_string(b.origin),
                b.injected_at, b.processes_tainted, b.messages_tainted,
                b.violations_attributed, b.containment());
    }
    std::cout << "\nblast radius (" << prov.minted() << " faults minted):\n";
    blast.print(std::cout);
  }
  if (!why_arg.empty()) {
    const obs::EventBus& bus = system.events();
    std::size_t target = bus.size();
    if (why_arg == "violation") {
      for (std::size_t i = bus.size(); i > 0; --i) {
        if (bus.event(i - 1).kind == obs::EventKind::kMonitorViolation) {
          target = i - 1;
          break;
        }
      }
      if (target == bus.size())
        std::cout << "\n--why=violation: no monitor violation retained\n";
    } else {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(why_arg.c_str(), &end, 10);
      if (end == why_arg.c_str() || *end != '\0') {
        std::cerr << "--why expects a bus index or 'violation', got '"
                  << why_arg << "'\n";
        return 2;
      }
      target = static_cast<std::size_t>(v);
      if (target >= bus.size()) {
        std::cout << "\n--why=" << why_arg << ": index out of range (trace"
                  << " holds " << bus.size() << " events)\n";
        target = bus.size();
      }
    }
    if (target < bus.size()) {
      const std::vector<std::size_t> chain = obs::why(bus, target);
      std::cout << "\ncausal chain for event #" << target << " ("
                << bus.render(bus.event(target)) << "):\n";
      if (chain.empty()) {
        std::cout << "  no recorded fault injection upstream of this event\n";
      } else {
        for (std::size_t idx : chain) {
          const obs::Event& e = bus.event(idx);
          std::cout << "  #" << idx << "  t=" << e.time << "  "
                    << bus.render(e) << "\n";
        }
      }
    }
  }
  if (!perfetto_path.empty()) {
    obs::write_perfetto_file(perfetto_path, system.events());
    std::cout << "\nwrote Perfetto trace (open in ui.perfetto.dev): "
              << perfetto_path << "\n";
  }
  if (!metrics_path.empty()) {
    report::write_json_file(
        metrics_path, obs::metrics_snapshot_to_json(stats.metrics));
    std::cout << "wrote metrics JSON: " << metrics_path << "\n";
  }
  return report.stabilized ? 0 : 1;
}
