// E12 — availability under sustained fault load.
//
// The paper's experiments end at a burst: inject, watch the system
// stabilize, stop. A deployed wrapper faces the other regime — faults keep
// arriving forever — and the interesting question becomes quantitative:
// how much critical-section service survives a continuous adversary, and
// how fast does the wrapped system reconverge after each hit? This bench
// drives the sustained fault-load subsystem (net::FaultProcess: Poisson
// per-kind message faults plus crash/recovery and partition/heal
// lifecycles) over a fault-rate x delta (wrapper resend period) x algorithm
// grid and reports availability (served/issued CS requests), violation
// density, and mean time-to-reconverge per fault arrival. The whole grid
// runs through ExperimentEngine, so BENCH_fault_load.json is byte-identical
// for every --jobs value.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

constexpr SimTime kWarmup = 500;
constexpr SimTime kObservation = 6000;
constexpr SimTime kDrain = 4000;

struct RateLevel {
  const char* name;
  /// Scales every stream's mean inter-arrival gap; 0 disables the load.
  double scale;
};

// "light" averages one message fault per ~100 ticks across the streams;
// "heavy" is one per ~25 ticks plus frequent crashes and partitions — well
// past the burst sizes of bench_stabilization_time, sustained forever.
constexpr RateLevel kRates[] = {
    {"off", 0.0}, {"light", 4.0}, {"medium", 1.5}, {"heavy", 0.6}};
constexpr SimTime kDeltas[] = {10, 25, 50};

net::FaultProcessConfig load_for(double scale) {
  net::FaultProcessConfig fp;
  if (scale <= 0) return fp;  // all-zero: subsystem stays idle
  fp.drop_mean = 150 * scale;
  fp.duplicate_mean = 400 * scale;
  fp.corrupt_mean = 400 * scale;
  fp.spurious_mean = 300 * scale;
  fp.process_corrupt_mean = 600 * scale;
  fp.channel_clear_mean = 900 * scale;
  fp.crash_mean = 1500 * scale;
  fp.downtime_mean = 150;
  fp.max_down = 1;
  fp.partition_mean = 2000 * scale;
  fp.partition_hold_mean = 120;
  // The load runs exactly over the observation window: warmup stays
  // fault-free and the drain is quiet, so the stabilization verdict keeps
  // its meaning (Theorem 8 speaks about runs where faults eventually stop).
  fp.start = kWarmup;
  fp.end = kWarmup + kObservation;
  return fp;
}

HarnessConfig config_for(const std::string& algo, SimTime delta,
                         double scale) {
  HarnessConfig config;
  config.n = 5;
  config.algorithm = algo;
  config.wrapper.resend_period = delta;
  config.client.think_mean = 40;
  config.client.eat_mean = 8;
  config.seed = 12000;
  config.fault_process = load_for(scale);
  return config;
}

FaultScenario scenario_sustained() {
  FaultScenario scenario;
  scenario.warmup = kWarmup;
  scenario.burst = 0;  // the sustained load IS the adversary
  scenario.observation = kObservation;
  scenario.drain = kDrain;
  return scenario;
}

const char* short_name(const std::string& algo) {
  return algo == "ricart-agrawala" ? "ra" : "lamport";
}

std::string cell_name(const std::string& algo, const RateLevel& rate,
                      SimTime delta) {
  return std::string(short_name(algo)) + "/rate=" + rate.name +
         "/delta=" + std::to_string(delta);
}

std::string fmt(double v, int digits = 3) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, with_engine_flags());
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 12));
  const ExperimentEngine engine(engine_options_from_flags(flags));

  const std::string algos[] = {"ricart-agrawala", "lamport"};

  SpecGrid grid;
  for (const std::string& algo : algos)
    for (const RateLevel& rate : kRates)
      for (const SimTime delta : kDeltas)
        grid.add(cell_name(algo, rate, delta),
                 config_for(algo, delta, rate.scale), scenario_sustained(),
                 trials);

  const GridResult result = engine.run(grid);

  std::cout << "E12: availability under sustained fault load (" << trials
            << " trials per cell, " << result.jobs << " jobs)\n"
            << "Load runs across the whole " << kObservation
            << "-tick observation window; availability = served/issued CS "
               "requests,\nreconverge = mean ticks from a fault arrival to "
               "the last safety violation it caused.\n";

  for (const std::string& algo : algos) {
    std::cout << "\n" << algo << ":\n\n";
    Table table({"rate", "delta", "stabilized", "availability mean±sd",
                 "faults/trial", "violations/trial", "reconverge mean"});
    for (const RateLevel& rate : kRates) {
      for (const SimTime delta : kDeltas) {
        const RepeatedResult& r =
            result.cell(cell_name(algo, rate, delta)).result;
        table.row(rate.name, delta,
                  std::to_string(r.stabilized) + "/" +
                      std::to_string(r.trials),
                  mean_pm_stddev(r.availability, 3), fmt(r.faults.mean(), 1),
                  fmt(r.violations.mean(), 1), fmt(r.reconverge.mean(), 1));
      }
    }
    table.print(std::cout);
  }

  std::cout
      << "\nExpected shape: at rate=off availability is 1 and reconverge "
         "is 0. As the sustained rate climbs, violation density grows "
         "roughly linearly with the arrival count, but availability stays "
         "near 1 and reconvergence stays within a few ticks — the wrapper "
         "reconverges between arrivals instead of letting damage compound "
         "— and every cell still stabilizes once the load stops (Theorem "
         "8). Larger delta tends to stretch reconvergence: corrections "
         "ride the resend clock (see bench_timeout_tuning for that "
         "trade-off measured fault-free).\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
