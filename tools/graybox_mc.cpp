// graybox_mc: systematic schedule & fault-placement exploration over the
// simulated TME stack (mc::Explorer).
//
// Modes:
//   (default)          explore one configuration; print the verdict, the
//                      shrunk counterexample (if any) and explorer stats.
//   --sweep            the CI matrix: {ra, lamport, cr} x wrapper tiers
//                      x fault modes, each cell bounded by its budget.
//                      Fault-free cells assert no safety violation at all;
//                      fault cells run level-2-wrapped tiers and assert
//                      convergence (no violation past last-fault + settle,
//                      no starvation after drain) — the unwrapped tiers
//                      make no stabilization claim under faults (that gap
//                      is the paper's point), so the sweep does not test
//                      them there.
//   --mutation-smoke   run the explorer against the three seeded protocol
//                      mutants (mc/mutants.hpp); each must be found and
//                      shrink to a short trace. Exit 1 on any miss.
//   --replay=FILE      rebuild the system and run that a saved trace
//                      names (no other flag may be given; exit 2
//                      otherwise), print its config digest, execute the
//                      trace twice and print the outcome. Exit 1 unless the
//                      rebuilt digest matches the recorded one, the two
//                      executions agree and the saved bug kind reproduces.
//
// Every mode prints one "mc-stats ..." line per explorer run; CI greps
// these into the job summary.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "core/engine.hpp"
#include "core/harness_flags.hpp"
#include "mc/explorer.hpp"
#include "mc/mutants.hpp"
#include "mc/trace.hpp"

namespace {

using namespace graybox;
using mc::BugProperty;
using mc::Explorer;
using mc::ExplorerConfig;
using mc::ExplorerResult;
using mc::ScheduleTrace;

void print_stats(const std::string& label, const mc::ExplorerStats& s) {
  std::cout << "mc-stats cell=" << label << " executions=" << s.executions
            << " choice_points=" << s.choice_points
            << " alternatives=" << s.alternatives
            << " pruned_sleep=" << s.pruned_sleep
            << " pruned_delay=" << s.pruned_delay
            << " faults_placed=" << s.faults_placed
            << " shrink_executions=" << s.shrink_executions << "\n";
}

void print_result(const std::string& label, Explorer& ex,
                  const ExplorerResult& r) {
  if (r.found) {
    std::cout << label << ": BUG kind=" << r.outcome.kind
              << " steps=" << r.counterexample.steps()
              << " (original steps=" << r.original.steps() << ")"
              << " digest=" << std::hex << r.outcome.digest << std::dec
              << "\n";
    std::cout << ex.explain(r.counterexample);
  } else {
    std::cout << label << ": clean\n";
  }
  print_stats(label, r.stats);
}

/// graybox_mc's system defaults: one for every knob of the harness flags.
core::HarnessConfig harness_defaults() {
  return {.n = 3, .algorithm = "ricart-agrawala", .wrapped = true,
          .wrapper = {.resend_period = 25}, .level1 = false,
          .client = {.think_mean = 30.0, .eat_mean = 8.0}, .seed = 1};
}

/// --property's spellings, in BugProperty order.
constexpr const char* kProperties[] = {"safety", "convergence"};

ExplorerConfig explorer_from_flags(const Flags& flags) {
  ExplorerConfig ec;
  ec.harness = core::harness_from_flags(flags, harness_defaults());
  const std::string property = flags.get("property", kProperties[0]);
  const auto* known = std::find(std::begin(kProperties),
                                std::end(kProperties), property);
  if (known == std::end(kProperties)) {
    std::cerr << "unknown --property '" << property
              << "'; accepted: safety, convergence\n";
    std::exit(2);
  }
  ec.property = static_cast<BugProperty>(known - std::begin(kProperties));
  ec.horizon = static_cast<SimTime>(flags.get_int("horizon", 1500));
  ec.budget = static_cast<std::uint64_t>(flags.get_int("budget", 500));
  ec.delay_budget =
      static_cast<std::uint32_t>(flags.get_int("delay-budget", 2));
  ec.fault_budget =
      static_cast<std::uint32_t>(flags.get_int("fault-budget", 0));
  ec.explore_lifecycle = flags.get_bool("lifecycle", false);
  ec.fault_window =
      static_cast<std::uint64_t>(flags.get_int("fault-window", 600));
  ec.fault_stride =
      static_cast<std::uint64_t>(flags.get_int("fault-stride", 60));
  const std::string kind = flags.get("fault-kind", "channel");
  const std::optional<net::FaultMix> mix = net::FaultMix::parse(kind);
  if (!mix) {
    std::cerr << "unknown --fault-kind '" << kind
              << "'; accepted: " << net::FaultMix::kSpellings << "\n";
    std::exit(2);
  }
  ec.mix = *mix;
  return ec;
}

int run_explore(const Flags& flags) {
  ExplorerConfig ec = explorer_from_flags(flags);
  Explorer ex(ec);
  const ExplorerResult r = ex.run();
  print_result("explore", ex, r);
  const std::string out = flags.get("out", "");
  if (r.found && !out.empty()) {
    // The file names its system and run, so --replay needs nothing else.
    mc::TraceHeader header{core::harness_flags(ec.harness),
                           core::config_digest(ec.harness), r.outcome.kind};
    header.flags.push_back(
        "--property=" +
        std::string(kProperties[static_cast<std::size_t>(ec.property)]));
    header.flags.push_back("--horizon=" + std::to_string(ec.horizon));
    std::ofstream f(out);
    f << r.counterexample.to_text(header);
    std::cout << "trace written to " << out << "\n";
  }
  return r.found ? 2 : 0;
}

int run_replay(const Flags& flags,
               const std::map<std::string, std::string>& spec) {
  for (const auto& [name, help] : spec) {
    if (name != "replay" && flags.has(name)) {
      std::cerr << "replay: --" << name
                << " given beside --replay; the trace names its system "
                   "and run\n";
      return 2;
    }
  }
  const std::string path = flags.get("replay", "");
  std::ifstream f(path);
  if (!f) {
    std::cerr << "replay: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  mc::TraceHeader header;
  const auto trace = ScheduleTrace::from_text(buf.str(), &header);
  if (!trace || header.config.empty() || header.bug.empty()) {
    std::cerr << "replay: " << path
              << " is not a graybox-mc-trace v2 file written by --out\n";
    return 1;
  }
  // The recorded flags are read as a command line is, so a value a command
  // line would reject is rejected in a file too.
  std::vector<const char*> argv{path.c_str()};
  for (const std::string& flag : header.flags) argv.push_back(flag.c_str());
  const Flags recorded(static_cast<int>(argv.size()), argv.data(), spec);
  const ExplorerConfig ec = explorer_from_flags(recorded);
  const std::string config = core::config_digest(ec.harness);
  std::cout << "replay: config=" << config << "\n";
  if (config != header.config) {
    std::cerr << "replay: the rebuilt system's digest differs from the "
                 "recorded config "
              << header.config << "\n";
    return 1;
  }
  Explorer ex(ec);
  const mc::Outcome first = ex.execute(*trace);
  const mc::Outcome second = ex.execute(*trace);
  const std::string bug = first.bug ? first.kind : "none";
  std::cout << "replay: bug=" << bug << " digest=" << std::hex
            << first.digest << std::dec << " " << first.detail << "\n";
  if (first.digest != second.digest) {
    std::cerr << "replay: NONDETERMINISTIC (digest mismatch on rerun)\n";
    return 1;
  }
  if (bug != header.bug) {
    std::cerr << "replay: saved for bug=" << header.bug
              << ", which did not reproduce\n";
    return 1;
  }
  return 0;
}

/// One sweep cell: a harness configuration plus the property and fault
/// surface the explorer probes it with.
struct SweepCell {
  std::string label;
  ExplorerConfig config;
};

std::vector<SweepCell> build_sweep(const Flags& flags) {
  const std::uint64_t budget =
      static_cast<std::uint64_t>(flags.get_int("budget", 120));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  std::vector<SweepCell> cells;
  const std::vector<std::string> algos = {"ricart-agrawala", "lamport",
                                          "carvalho-roucairol"};
  for (const std::string& algo : algos) {
    auto base = [&](bool wrapped, bool level1) {
      ExplorerConfig ec;
      ec.harness.n = 3;
      ec.harness.algorithm = algo;
      ec.harness.wrapped = wrapped;
      ec.harness.level1 = level1;
      ec.harness.client.think_mean = 30.0;
      ec.harness.client.eat_mean = 8.0;
      ec.harness.seed = seed;
      ec.budget = budget;
      return ec;
    };
    auto add = [&](const char* tier, ExplorerConfig ec) {
      cells.push_back(SweepCell{algo + "/" + tier, std::move(ec)});
    };
    {  // Fault-free safety, all four tiers.
      add("bare/safety", base(false, false));
      add("level1/safety", base(false, true));
      add("wrapped/safety", base(true, false));
      add("both/safety", base(true, true));
    }
    {  // Channel faults, level-2-wrapped tiers, convergence.
      ExplorerConfig ec = base(true, false);
      ec.property = BugProperty::kConvergence;
      ec.fault_budget = 2;
      add("wrapped/channel", std::move(ec));
      ExplorerConfig ec2 = base(true, true);
      ec2.property = BugProperty::kConvergence;
      ec2.fault_budget = 2;
      add("both/channel", std::move(ec2));
    }
    {  // Crash/recover and partition/heal lifecycles, wrapped.
      ExplorerConfig ec = base(true, false);
      ec.property = BugProperty::kConvergence;
      ec.fault_budget = 1;
      ec.explore_lifecycle = true;
      add("wrapped/lifecycle", std::move(ec));
    }
  }
  return cells;
}

int run_sweep(const Flags& flags) {
  std::vector<SweepCell> cells = build_sweep(flags);
  struct CellOut {
    ExplorerResult result;
    std::string rendered;  // explain() text for found bugs
  };
  std::vector<CellOut> out(cells.size());
  // Cell i lands in out[i] whichever worker runs it, so the printed report
  // is byte-identical for every --jobs.
  parallel_tasks(
      cells.size(), static_cast<std::size_t>(flags.get_int("jobs", 1)),
      [&](std::size_t i) {
        Explorer ex(cells[i].config);
        out[i].result = ex.run();
        if (out[i].result.found)
          out[i].rendered = ex.explain(out[i].result.counterexample);
      });

  std::size_t bugs = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ExplorerResult& r = out[i].result;
    if (r.found) {
      ++bugs;
      std::cout << cells[i].label << ": BUG kind=" << r.outcome.kind
                << " steps=" << r.counterexample.steps() << "\n";
      std::cout << out[i].rendered;
    } else {
      std::cout << cells[i].label << ": clean\n";
    }
    print_stats(cells[i].label, r.stats);
  }
  std::cout << "sweep: " << cells.size() << " cells, " << bugs
            << " with bugs\n";
  return bugs == 0 ? 0 : 2;
}

/// Per-mutant explorer setup: each mutant is paired with the narrowest
/// configuration whose clean counterpart provably admits no violation, so
/// any bug the explorer finds is the seeded defect.
int run_mutation_smoke(const Flags& flags) {
  const std::uint64_t budget =
      static_cast<std::uint64_t>(flags.get_int("budget", 400));
  struct MutantCase {
    const char* name;
    ExplorerConfig config;
  };
  std::vector<MutantCase> cases;
  {
    // Equal-counter concurrent requests; fault-free; pid tiebreak is the
    // only thing between them and mutual entry.
    ExplorerConfig ec;
    ec.harness.n = 2;
    ec.harness.algorithm = "mutant-ra-tiebreak";
    ec.harness.wrapped = false;
    // Short think times put first requests in each other's delivery
    // windows, where equal Lamport counters are common and only the pid
    // tiebreak separates the processes.
    ec.harness.client.think_mean = 3.0;
    ec.budget = budget;
    ec.delay_budget = 3;
    cases.push_back({"mutant-ra-tiebreak", std::move(ec)});
  }
  {
    // Release notifies nobody; a waiter's stale view starves it. Detected
    // unwrapped — the wrapper's resends would eventually repair the view,
    // which is exactly the graybox story, not the mutant's absence.
    ExplorerConfig ec;
    ec.harness.n = 2;
    ec.harness.algorithm = "mutant-ra-eager-reply";
    ec.harness.wrapped = false;
    ec.harness.client.think_mean = 20.0;
    ec.budget = budget;
    ec.delay_budget = 3;
    cases.push_back({"mutant-ra-eager-reply", std::move(ec)});
  }
  {
    // Concurrent requests whose carriers are still in flight: without the
    // acknowledgement wait, both sides enter on local queue evidence.
    // Fault-free, so any violation is the mutant's.
    ExplorerConfig ec;
    ec.harness.n = 2;
    ec.harness.algorithm = "mutant-lamport-no-ack";
    ec.harness.wrapped = false;
    ec.harness.client.think_mean = 10.0;
    ec.budget = budget;
    ec.delay_budget = 3;
    cases.push_back({"mutant-lamport-no-ack", std::move(ec)});
  }

  int missed = 0;
  for (MutantCase& c : cases) {
    bool found = false;
    // A fixed handful of root seeds; the smoke is deterministic because
    // the seed list and every per-seed exploration are.
    for (std::uint64_t seed = 1; seed <= 4 && !found; ++seed) {
      ExplorerConfig ec = c.config;
      ec.harness.seed = seed;
      Explorer ex(ec);
      const ExplorerResult r = ex.run();
      if (r.found) {
        found = true;
        std::cout << "mutant " << c.name << ": caught (seed=" << seed
                  << " kind=" << r.outcome.kind
                  << " steps=" << r.counterexample.steps()
                  << " original=" << r.original.steps() << ")\n";
        std::cout << ex.explain(r.counterexample);
        print_stats(c.name, r.stats);
        if (r.counterexample.steps() > 10) {
          std::cout << "mutant " << c.name
                    << ": FAIL shrunk trace exceeds 10 steps\n";
          ++missed;
        }
      }
    }
    if (!found) {
      std::cout << "mutant " << c.name << ": MISSED\n";
      ++missed;
    }
  }
  std::cout << "mutation-smoke: " << (cases.size() - missed) << "/"
            << cases.size() << " caught\n";
  return missed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, std::string> spec = core::with_harness_flags(
      harness_defaults(),
      {{"budget", "max DFS executions (default 500; 120 per sweep cell)"},
       {"delay-budget", "max non-default choices per schedule (default 2)"},
       {"fault-budget", "max placed faults per trace (default 0)"},
       {"fault-window", "fault positions lie in [0, window) events"},
       {"fault-stride", "fault-position grid spacing in events (default 60)"},
       {"fault-kind",
        std::string(net::FaultMix::kSpellings) + " (default channel)"},
       {"lifecycle", "also enumerate crash/recover and partition/heal"},
       {"horizon", "per-execution sim-time bound (default 1500)"},
       {"property", "safety | convergence (default safety)"},
       {"out", "write the shrunk counterexample trace to this file"},
       {"replay", "execute a saved trace file instead of exploring"},
       {"sweep", "run the algorithm x tier x fault matrix"},
       {"mutation-smoke", "assert the seeded mutants are caught"},
       {"jobs", "sweep worker threads (default 1; 0 = all cores)"}});
  const Flags flags(argc, argv, spec);
  graybox::mc::register_mutants();  // the mutants' home binary
  if (flags.has("mutation-smoke")) return run_mutation_smoke(flags);
  if (flags.has("replay")) return run_replay(flags, spec);
  if (flags.has("sweep")) return run_sweep(flags);
  return run_explore(flags);
}
