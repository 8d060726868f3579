// E14 — substrate scaling study: N in {16, 64, 128, 256}.
//
// The monitoring substrate's per-event cost grows with the number of
// *changed rows*, not with N²: the network's touched-pid list tells a fixed
// previous/current snapshot pair which rows to re-read, and the monitors
// update incrementally from that hint. This bench measures, per (N,
// algorithm, bare/wrapped) cell under a contention-heavy client
// (think_mean = 8N keeps the request rate per tick roughly constant as N
// grows):
//
//   * events/sec — end-to-end simulator throughput (wall-clock, volatile);
//   * observe_ns/event — the monitoring hot path alone (volatile);
//   * stabilization latency after a 12-fault burst vs N (deterministic).
//
// It also runs the PR-gating before/after pair at N=256 wrapped
// Ricart-Agrawala: the same cell on the reference substrate
// (HarnessConfig::reference_substrate: every monitor stepped with
// kDirtyAll, its full check) must be >= 5x slower on
// events/sec. Both halves live in this binary so the comparison is one
// build, one machine, one invocation — PR 6's bench_substrate_micro style.
//
// N > 64 cells use random fault bursts only: partition streams are capped
// at 64 processes (FaultInjector::inject_targeted's uint64 masks) and E14
// does not request them.
//
// The JSON artifact is byte-identical across --jobs values modulo the
// volatile (wall/ns) lines — pinned by the CI smoke run (--nmax 64
// --trials 1 --pair 0 under --jobs 1 vs --jobs 8).
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

struct Impl {
  const char* column;
  const char* algo;
};
constexpr Impl kImpls[] = {{"ra", "ricart-agrawala"},
                           {"lamport", "lamport"},
                           {"cr", "carvalho-roucairol"}};

HarnessConfig cell_config(std::size_t n, const char* algo, bool wrapped,
                          std::uint64_t seed) {
  HarnessConfig config;
  config.n = n;
  config.algorithm = algo;
  config.wrapped = wrapped;
  config.wrapper.resend_period = 20;
  // Contention-heavy: each process thinks ~8N ticks, so ~1/8 of the system
  // is requesting at any time at every N — the per-tick message load grows
  // linearly with N and the observation substrate is what's being priced.
  config.client.think_mean = 8 * static_cast<SimTime>(n);
  config.client.eat_mean = 8;
  config.seed = seed;
  return config;
}

std::string cell_name(const char* mode, const char* column, std::size_t n) {
  return std::string(mode) + "/" + column + "/n=" + std::to_string(n);
}

double cell_events_per_sec(const CellResult& cell) {
  const double events = cell.result.events.sum();
  return cell.wall_seconds > 0 ? events / cell.wall_seconds : 0.0;
}

double cell_observe_ns_per_event(const CellResult& cell) {
  const double events = cell.result.events.sum();
  return events > 0 ? cell.result.observe_ns_total / events : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      with_engine_flags(
          {{"nmax", "largest system size to run (default 256)"},
           {"grid", "run the full N-grid (default 1; 0 = pair only)"},
           {"pair", "run the N=256 sparse-vs-reference pair (default 1)"}}));
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 3));
  const std::size_t nmax = static_cast<std::size_t>(flags.get_int("nmax", 256));
  const bool run_grid = flags.get_bool("grid", true);
  const bool run_pair = flags.get_bool("pair", true) && nmax >= 256;
  const ExperimentEngine engine(engine_options_from_flags(flags));

  // One burst mid-run; the observation window is sized so every wrapped
  // cell has room to stabilize even at N=256.
  FaultScenario scenario;
  scenario.warmup = 400;
  scenario.burst = 12;
  scenario.observation = 3000;
  scenario.drain = 2000;

  const std::size_t all_sizes[] = {16, 64, 128, 256};
  std::vector<std::size_t> sizes;
  for (const std::size_t n : all_sizes) {
    if (run_grid && n <= nmax) sizes.push_back(n);
  }

  SpecGrid grid;
  for (const std::size_t n : sizes) {
    for (const Impl& impl : kImpls) {
      for (const bool wrapped : {false, true}) {
        const char* mode = wrapped ? "wrapped" : "bare";
        grid.add(cell_name(mode, impl.column, n),
                 cell_config(n, impl.algo, wrapped, 1400 + n), scenario,
                 trials);
      }
    }
  }

  GridResult result = engine.run(grid);

  // Before/after pair: identical config and scenario, reference substrate
  // on vs off, one seed — the denominator of the ">= 5x" claim. The
  // observation window is long enough to amortize the N=256 harness setup
  // (65k channels) that both halves pay equally; the pair runs in its own
  // fully serial engine pass so neither half's wall clock is polluted by
  // co-running cells, whatever --jobs the grid used.
  if (run_pair) {
    FaultScenario pair_scenario;
    pair_scenario.warmup = 200;
    pair_scenario.burst = 8;
    pair_scenario.observation = 2400;
    pair_scenario.drain = 400;
    SpecGrid pair_grid;
    HarnessConfig sparse = cell_config(256, "ricart-agrawala", true, 99);
    pair_grid.add("pair/ra/n=256/sparse", sparse, pair_scenario, 1);
    HarnessConfig reference = sparse;
    reference.reference_substrate = true;
    pair_grid.add("pair/ra/n=256/reference", reference, pair_scenario, 1);
    EngineOptions pair_options = engine_options_from_flags(flags);
    pair_options.jobs = 1;
    const GridResult pair_result = ExperimentEngine(pair_options).run(pair_grid);
    for (const CellResult& cell : pair_result.cells) {
      result.cells.push_back(cell);
    }
    result.wall_seconds += pair_result.wall_seconds;
  }

  std::cout << "E14: substrate scaling, N in {";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::cout << (i ? ", " : "") << sizes[i];
  }
  std::cout << "} (" << trials << " trials per cell, " << result.jobs
            << " jobs; think_mean = 8N keeps per-tick load ~linear in N)\n\n";

  Table table({"n", "algorithm", "mode", "events mean", "events/sec",
               "observe ns/ev", "stabilized", "latency mean", "safety viol"});
  for (const std::size_t n : sizes) {
    for (const Impl& impl : kImpls) {
      for (const bool wrapped : {false, true}) {
        const char* mode = wrapped ? "wrapped" : "bare";
        const CellResult& cell = result.cell(cell_name(mode, impl.column, n));
        const RepeatedResult& r = cell.result;
        char eps[32], ons[32], lat[32];
        std::snprintf(eps, sizeof eps, "%.0f", cell_events_per_sec(cell));
        std::snprintf(ons, sizeof ons, "%.0f", cell_observe_ns_per_event(cell));
        std::snprintf(lat, sizeof lat, "%.0f", r.latency.mean());
        table.row(n, impl.algo, mode,
                  static_cast<std::uint64_t>(r.events.mean()), eps, ons,
                  std::to_string(r.stabilized) + "/" +
                      std::to_string(r.trials),
                  lat, static_cast<std::uint64_t>(r.safety_violations.sum()));
      }
    }
  }
  table.print(std::cout);

  std::cout
      << "\nExpected shape: events/sec decays far slower than 1/N² and "
         "observe ns/event stays near-flat in N (dirty-row work, not N² "
         "sweeps); wrapped cells stabilize at every N while bare cells keep "
         "their post-burst violations; stabilization latency grows mildly "
         "with N as wrapper round-trips lengthen.\n";

  if (run_pair) {
    const CellResult& sparse = result.cell("pair/ra/n=256/sparse");
    const CellResult& reference = result.cell("pair/ra/n=256/reference");
    const double sparse_eps = cell_events_per_sec(sparse);
    const double reference_eps = cell_events_per_sec(reference);
    const double speedup =
        reference_eps > 0 ? sparse_eps / reference_eps : 0.0;
    char line[256];
    std::snprintf(line, sizeof line,
                  "\nN=256 wrapped RA before/after (same seed, same burst): "
                  "sparse %.0f events/sec vs reference %.0f events/sec "
                  "=> %.1fx (gate: >= 5x)\n",
                  sparse_eps, reference_eps, speedup);
    std::cout << line;
    // The two substrates must also agree on every deterministic outcome —
    // the equivalence the golden suite pins, spot-checked here end to end.
    if (sparse.result.events.sum() != reference.result.events.sum() ||
        sparse.result.violations.sum() != reference.result.violations.sum()) {
      std::cout << "ERROR: sparse and reference substrates diverged\n";
      return 1;
    }
    if (speedup < 5.0) {
      std::cout << "ERROR: speedup gate failed (< 5x)\n";
      return 1;
    }
  }

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
