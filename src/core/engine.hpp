// ExperimentEngine: seed-sharded parallel trial execution with a
// deterministic seed-order fold.
//
// Every quantitative claim in this reproduction comes from repeating seeded
// fault-recovery trials. The engine replaces the per-bench serial loops
// with one declarative substrate:
//
//   * a RunSpec names one grid cell: a HarnessConfig, a FaultScenario, and
//     a trial count (trials run over consecutive seeds from config.seed);
//   * a SpecGrid is an ordered collection of named cells — the whole
//     experiment of one bench binary;
//   * the engine fans every (cell, trial) pair out across a worker pool
//     (each trial owns an isolated Scheduler/Rng/SystemHarness, so trials
//     are embarrassingly parallel) and then folds the per-trial results
//     IN SEED ORDER into one RepeatedResult per cell.
//
// Determinism: the fold is a serial reduction over slots indexed by
// (cell, trial), so the aggregate statistics are bit-identical for every
// --jobs value — `--jobs 1` and `--jobs N` produce byte-identical JSON
// artifacts modulo wall-clock fields (enforced by tests/test_engine.cpp).
//
//   SpecGrid grid;
//   for (std::size_t n : {2u, 4u, 8u})
//     grid.add("ra/n=" + std::to_string(n), config_for(n), scenario, 64);
//   const GridResult result = ExperimentEngine({.jobs = 0}).run(grid);
//   write_bench_json("bench_stabilization_time", result, json_path);
#pragma once

#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/report.hpp"
#include "core/experiment.hpp"

namespace graybox::core {

/// One named grid cell: `trials` seeded experiments over consecutive seeds
/// config.seed, config.seed + 1, ..., each one run_fault_experiment.
struct RunSpec {
  std::string name;
  HarnessConfig config;
  FaultScenario scenario;
  std::size_t trials = 1;
};

/// An ordered, uniquely named collection of RunSpecs.
class SpecGrid {
 public:
  /// Add a cell. Names must be unique within the grid (contract).
  RunSpec& add(RunSpec spec);
  RunSpec& add(std::string name, HarnessConfig config, FaultScenario scenario,
               std::size_t trials);

  const std::vector<RunSpec>& cells() const { return cells_; }
  std::size_t total_trials() const;
  bool empty() const { return cells_.empty(); }

 private:
  std::vector<RunSpec> cells_;
};

struct EngineOptions {
  /// Worker threads; 0 = all hardware cores, 1 = fully serial (no threads).
  std::size_t jobs = 0;
};

/// Aggregated outcome of one grid cell.
struct CellResult {
  std::string name;
  std::string config_digest;  ///< hex digest of the cell's HarnessConfig
  /// Registry-canonical algorithm spec of the cell's config (see
  /// core::algorithm_spec); round-trips through the JSON cell.
  std::string algorithm;
  std::uint64_t base_seed = 0;
  RepeatedResult result;
  double wall_seconds = 0.0;  ///< summed per-trial wall time (CPU-ish)
};

struct GridResult {
  std::vector<CellResult> cells;
  std::size_t jobs = 1;       ///< resolved worker count actually used
  double wall_seconds = 0.0;  ///< real elapsed time for the whole grid

  /// Lookup by cell name; aborts if absent.
  const CellResult& cell(const std::string& name) const;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions options = {});

  GridResult run(const SpecGrid& grid) const;
  CellResult run_cell(const RunSpec& spec) const;

  /// The resolved worker count this engine will use.
  std::size_t jobs() const { return jobs_; }

 private:
  std::size_t jobs_;
};

/// Stable hex digest of every behaviour-relevant HarnessConfig field
/// (FNV-1a 64). Two cells with equal digests and equal seeds replay the
/// same trials; the digest is recorded in each JSON cell so artifacts are
/// comparable PR-over-PR.
std::string config_digest(const HarnessConfig& config);

/// Engine options from the shared --jobs flag (see with_engine_flags()).
EngineOptions engine_options_from_flags(const Flags& flags);

/// Serialize a cell / grid to the BENCH_<name>.json schema.
report::Json cell_to_json(const CellResult& cell);
report::Json grid_to_json(const std::string& bench_name,
                          const GridResult& result);

/// Write the grid artifact for `bench_name` to `path`; "-" disables.
void write_bench_json(const std::string& bench_name, const GridResult& result,
                      const std::string& path);

/// Convenience used by every bench main: resolve --json (default
/// BENCH_<basename>.json) and write unless disabled. Returns the path
/// written, or "" when disabled.
std::string emit_bench_artifact(const Flags& flags, const GridResult& result);

}  // namespace graybox::core
