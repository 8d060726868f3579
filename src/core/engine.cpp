#include "core/engine.hpp"

#include <chrono>
#include <cstdio>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace graybox::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- config digest ----------------------------------------------------------

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void mix(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    __builtin_memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  void mix(bool b) { mix(std::uint64_t{b ? 1u : 0u}); }
  void mix(std::string_view s) {
    mix(std::uint64_t{s.size()});
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::string config_digest(const HarnessConfig& config) {
  Fnv1a h;
  h.mix(std::uint64_t{config.n});
  // The algorithm choice is hashed through the registry's canonical
  // serialization (per-process "name[key=value,...]" with options fully
  // resolved): two configs that construct identical processes digest
  // identically regardless of spelling (an alias, option order, a default
  // spelled out), and externally registered algorithms digest without
  // touching this function.
  h.mix(std::string_view{algorithm_spec(config)});
  h.mix(config.wrapped);
  h.mix(std::uint64_t{config.wrapper.resend_period});
  h.mix(config.wrapper.unrefined_send_all);
  h.mix(config.level1);
  h.mix(std::uint64_t{config.local_wrapper.check_period});
  h.mix(std::uint64_t{config.per_process_tiers.size()});
  for (const std::uint8_t t : config.per_process_tiers)
    h.mix(std::uint64_t{t});
  h.mix(std::uint64_t{config.delay.min});
  h.mix(std::uint64_t{config.delay.max});
  h.mix(config.client.think_mean);
  h.mix(config.client.eat_mean);
  h.mix(std::uint64_t{config.client.poll_interval});
  h.mix(config.client.wants_cs);
  h.mix(config.install_monitors);
  // The Lspec clause monitors install with the TME battery. This constant
  // slot keeps every digest equal to the ones the committed artifacts pin.
  h.mix(true);
  h.mix(config.fault_process.drop_mean);
  h.mix(config.fault_process.duplicate_mean);
  h.mix(config.fault_process.corrupt_mean);
  h.mix(config.fault_process.reorder_mean);
  h.mix(config.fault_process.spurious_mean);
  h.mix(config.fault_process.process_corrupt_mean);
  h.mix(config.fault_process.channel_clear_mean);
  h.mix(config.fault_process.crash_mean);
  h.mix(config.fault_process.downtime_mean);
  h.mix(std::uint64_t{config.fault_process.max_down});
  h.mix(config.fault_process.partition_mean);
  h.mix(config.fault_process.partition_hold_mean);
  h.mix(std::uint64_t{config.fault_process.start});
  h.mix(std::uint64_t{config.fault_process.end});
  // Deliberately excluded: seed (recorded separately as the cell's seed
  // range), trace_capacity, collect_metrics, and provenance (observability
  // only — the engine forces collect_metrics and provenance on per trial,
  // and none of them changes the run's RNG-visible behavior).
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.value()));
  return buf;
}

// --- SpecGrid ---------------------------------------------------------------

RunSpec& SpecGrid::add(RunSpec spec) {
  GBX_EXPECTS(!spec.name.empty());
  for (const RunSpec& existing : cells_)
    GBX_EXPECTS(existing.name != spec.name);
  GBX_EXPECTS(spec.trials > 0);
  cells_.push_back(std::move(spec));
  return cells_.back();
}

RunSpec& SpecGrid::add(std::string name, HarnessConfig config,
                       FaultScenario scenario, std::size_t trials) {
  RunSpec spec;
  spec.name = std::move(name);
  spec.config = std::move(config);
  spec.scenario = std::move(scenario);
  spec.trials = trials;
  return add(std::move(spec));
}

std::size_t SpecGrid::total_trials() const {
  std::size_t total = 0;
  for (const RunSpec& spec : cells_) total += spec.trials;
  return total;
}

// --- GridResult -------------------------------------------------------------

const CellResult& GridResult::cell(const std::string& name) const {
  for (const CellResult& c : cells) {
    if (c.name == name) return c;
  }
  GBX_EXPECTS(false && "GridResult::cell: unknown cell name");
  std::abort();  // unreachable
}

// --- ExperimentEngine -------------------------------------------------------

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : jobs_(resolve_jobs(options.jobs)) {}

GridResult ExperimentEngine::run(const SpecGrid& grid) const {
  const auto grid_start = std::chrono::steady_clock::now();

  // Flatten every (cell, trial) pair into one task list so that even
  // single-trial cells (e.g. the interference sweep's one-run-per-delta
  // grid) parallelize across cells.
  struct Task {
    std::size_t cell;
    std::size_t trial;
  };
  std::vector<Task> tasks;
  tasks.reserve(grid.total_trials());
  for (std::size_t c = 0; c < grid.cells().size(); ++c)
    for (std::size_t t = 0; t < grid.cells()[c].trials; ++t)
      tasks.push_back(Task{c, t});

  // One pre-allocated slot per trial: workers never touch shared state.
  struct Slot {
    ExperimentResult result;
    double wall_seconds = 0.0;
  };
  std::vector<std::vector<Slot>> slots(grid.cells().size());
  for (std::size_t c = 0; c < grid.cells().size(); ++c)
    slots[c].resize(grid.cells()[c].trials);

  parallel_tasks(tasks.size(), jobs_, [&](std::size_t i) {
    const Task task = tasks[i];
    const RunSpec& spec = grid.cells()[task.cell];
    HarnessConfig config = spec.config;
    config.seed = spec.config.seed + task.trial;
    // Metrics and provenance are passive (no RNG draws, no scheduling), so
    // forcing them on is determinism-safe and gives every BENCH artifact a
    // metrics section with blast-radius rollups.
    config.collect_metrics = true;
    config.provenance = true;
    const auto start = std::chrono::steady_clock::now();
    Slot& slot = slots[task.cell][task.trial];
    slot.result = run_fault_experiment(config, spec.scenario);
    slot.wall_seconds = seconds_since(start);
  });

  // Deterministic fold: add() each cell's trials in seed order. This is
  // the exact sequence of add() calls a serial loop would have made, so
  // the aggregate is independent of the jobs count and of thread timing.
  GridResult out;
  out.jobs = jobs_;
  out.cells.reserve(grid.cells().size());
  for (std::size_t c = 0; c < grid.cells().size(); ++c) {
    const RunSpec& spec = grid.cells()[c];
    CellResult cell;
    cell.name = spec.name;
    cell.config_digest = config_digest(spec.config);
    cell.algorithm = algorithm_spec(spec.config);
    cell.base_seed = spec.config.seed;
    for (const Slot& slot : slots[c]) {
      cell.result.add(slot.result);
      cell.wall_seconds += slot.wall_seconds;
    }
    out.cells.push_back(std::move(cell));
  }
  out.wall_seconds = seconds_since(grid_start);
  return out;
}

CellResult ExperimentEngine::run_cell(const RunSpec& spec) const {
  SpecGrid grid;
  grid.add(spec);
  GridResult result = run(grid);
  return std::move(result.cells.front());
}

EngineOptions engine_options_from_flags(const Flags& flags) {
  EngineOptions options;
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  return options;
}

// --- JSON emission ----------------------------------------------------------

namespace {

report::Json accumulator_to_json(const Accumulator& acc) {
  report::Json j = report::Json::object();
  j["count"] = std::uint64_t{acc.count()};
  j["mean"] = acc.mean();
  j["stddev"] = acc.stddev();
  j["min"] = acc.min();
  j["max"] = acc.max();
  j["p50"] = acc.percentile(50);
  j["p99"] = acc.percentile(99);
  j["sum"] = acc.sum();
  return j;
}

}  // namespace

report::Json cell_to_json(const CellResult& cell) {
  report::Json j = report::Json::object();
  j["name"] = cell.name;
  j["config"] = cell.config_digest;
  j["algorithm"] = cell.algorithm;
  j["base_seed"] = cell.base_seed;
  j["trials"] = std::uint64_t{cell.result.trials};
  j["stabilized"] = std::uint64_t{cell.result.stabilized};
  for (const AccumulatorField& f : kAccumulatorFields)
    j[f.name] = accumulator_to_json(cell.result.*f.member);
  if (!cell.result.metrics.empty()) {
    j["metrics"] = cell.result.metrics.to_json();
  }
  // Perf-trajectory fields, wall-clock derived and therefore volatile
  // (stripped alongside wall_seconds by strip_volatile_lines).
  const double events_sum = cell.result.events.sum();
  j["observe_ns_per_event"] =
      events_sum > 0 ? cell.result.observe_ns_total / events_sum : 0.0;
  j["events_per_sec"] =
      cell.wall_seconds > 0 ? events_sum / cell.wall_seconds : 0.0;
  j["wall_seconds"] = cell.wall_seconds;
  return j;
}

report::Json grid_to_json(const std::string& bench_name,
                          const GridResult& result) {
  report::Json doc = report::Json::object();
  doc["bench"] = bench_name;
  doc["schema"] = 1;
  doc["jobs"] = std::uint64_t{result.jobs};
  doc["wall_seconds"] = result.wall_seconds;
  report::Json cells = report::Json::array();
  for (const CellResult& cell : result.cells)
    cells.push_back(cell_to_json(cell));
  doc["cells"] = std::move(cells);
  return doc;
}

void write_bench_json(const std::string& bench_name, const GridResult& result,
                      const std::string& path) {
  if (path == "-") return;
  report::write_json_file(path, grid_to_json(bench_name, result));
}

std::string emit_bench_artifact(const Flags& flags, const GridResult& result) {
  const std::string path =
      flags.get("json", report::default_bench_json_path(flags.program()));
  if (path == "-") return "";
  write_bench_json(report::bench_name_from_program(flags.program()), result,
                   path);
  return path;
}

}  // namespace graybox::core
