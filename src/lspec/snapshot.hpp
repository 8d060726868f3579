// Global state snapshots: the monitoring substrate.
//
// Monitors judge UNITY properties over the sequence of global states, one
// per executed simulator event. A snapshot records, for every process, the
// Lspec observables (state, REQ, the knows_earlier relation) plus the
// monitor-side vector clock, and for the network the in-flight message
// count. Snapshots capture the *graybox* view — they contain nothing a
// wrapper could not also see — so a specification clause checkable on
// snapshots is by construction checkable without implementation knowledge.
//
// Storage: the per-process scalar observables live in one contiguous
// ProcessSnapshot array; the two per-pair relations (knows_earlier, vector
// clocks) are row-sparse — a row is backed by pool storage only once
// something writes it, and unmaterialized rows read as all-false/all-zero,
// exactly their dense zero-initialized contents. resize() is O(N); a row
// materializes at most once (first write), so steady-state captures into a
// sized snapshot allocate nothing. SnapshotSource keeps a double buffer of
// these and, using the observation version counters maintained by
// TmeProcess and Network, re-reads only the rows that actually changed
// since the previous event — O(dirty rows) per event instead of O(N²).
//
// Aggregate counts (eating/hungry totals, per-row knows-true counts) are
// cached so the monitors' hot-path guards are O(1). The cache is only
// enabled for SnapshotSource-maintained buffers: hand-built snapshots
// (tests mutate procs[j].state directly) keep the O(N) scan fallback.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clock/timestamp.hpp"
#include "clock/vector_clock.hpp"
#include "me/tme_process.hpp"
#include "net/network.hpp"
#include "spec/monitor.hpp"

namespace graybox::lspec {

/// Per-process scalar observables; plain data, no heap.
struct ProcessSnapshot {
  me::TmeState state = me::TmeState::kThinking;
  clk::Timestamp req{};
  /// ts.j: the logical-clock value after the process's most recent event
  /// (CS Release Spec glues REQ to it while thinking).
  clk::Timestamp clock_now{};

  bool thinking() const { return state == me::TmeState::kThinking; }
  bool hungry() const { return state == me::TmeState::kHungry; }
  bool eating() const { return state == me::TmeState::kEating; }
};

class GlobalSnapshot {
 public:
  SimTime time = 0;
  /// One entry per process; index with the process id.
  std::vector<ProcessSnapshot> procs;
  std::size_t in_flight = 0;

  /// Size the storage for n processes; all observables read as zero.
  void resize(std::size_t n);
  std::size_t size() const { return procs.size(); }

  /// knows_earlier[j][k] = "REQj lt j.REQk" as process j reads it; the own
  /// index (k == j) is always false.
  bool knows_earlier(std::size_t j, std::size_t k) const {
    const std::int32_t slot = row_slot_[j];
    return slot >= 0 &&
           knows_pool_[static_cast<std::size_t>(slot) * procs.size() + k] != 0;
  }
  void set_knows_earlier(std::size_t j, std::size_t k, bool value);

  /// Monitor-side causal clock of process j (components, after its latest
  /// event). Unmaterialized rows read as all-zero.
  std::span<const std::uint64_t> vc_row(std::size_t j) const {
    const std::int32_t slot = row_slot_[j];
    if (slot < 0) return {zero_vc_row_.data(), procs.size()};
    return {vc_pool_.data() + static_cast<std::size_t>(slot) * procs.size(),
            procs.size()};
  }
  void set_vc(std::size_t j, const clk::VectorClock& vc);

  /// O(1) when the count cache is enabled (SnapshotSource buffers), O(N)
  /// scan otherwise (hand-built snapshots).
  std::size_t eating_count() const;
  std::size_t hungry_count() const;

  /// CS Entry Spec's guard aggregate: does j know its request precedes
  /// every peer's? O(1) when the count cache is enabled, O(N) otherwise.
  bool knows_all_earlier(std::size_t j) const;

 private:
  friend class SnapshotSource;

  /// Recompute and enable the aggregate-count cache. From then on
  /// SnapshotSource::write_row and set_knows_earlier maintain it
  /// incrementally; resize() disables it again.
  void enable_counts();

  std::int32_t materialize_row(std::size_t j);
  // materialize_row may grow the pools, so it must be sequenced before
  // data() is read.
  char* knows_row_mut(std::size_t j) {
    const auto slot = static_cast<std::size_t>(materialize_row(j));
    return knows_pool_.data() + slot * procs.size();
  }
  std::uint64_t* vc_row_mut(std::size_t j) {
    const auto slot = static_cast<std::size_t>(materialize_row(j));
    return vc_pool_.data() + slot * procs.size();
  }

  /// Row-sparse N×N relations: row j lives at pool offset row_slot_[j] * n
  /// once materialized, -1 before.
  std::vector<std::int32_t> row_slot_;
  std::vector<char> knows_pool_;
  std::vector<std::uint64_t> vc_pool_;
  /// Shared all-zero row backing vc_row() of unmaterialized rows.
  std::vector<std::uint64_t> zero_vc_row_;

  bool counts_valid_ = false;
  std::size_t eating_count_ = 0;
  std::size_t hungry_count_ = 0;
  /// Per row j: number of true knows_earlier(j, k) entries.
  std::vector<std::uint16_t> knows_true_;
};

/// Captures GlobalSnapshots from live processes and the network.
///
/// The delta path — capture() — writes into an internal double buffer:
/// the returned reference and the previously returned reference stay valid
/// and distinct across consecutive calls, which is what lets MonitorSet
/// observe by reference with no copy. Row rewrites are driven by the
/// observation version counters (TmeProcess::obs_version,
/// Network::vclock_version): a row is re-read only when its combined
/// version moved, and last_dirty() summarizes the change against the
/// previous snapshot as Monitor::step's dirty hint.
class SnapshotSource {
 public:
  SnapshotSource(std::vector<me::TmeProcess*> processes,
                 const net::Network& net);

  /// Delta capture into the double buffer. Returns the new current
  /// snapshot; the previous one remains readable via previous().
  const GlobalSnapshot& capture(SimTime t);

  /// Dirty summary of the latest capture() relative to the snapshot before
  /// it: spec::kDirtyNone, a single process id, or spec::kDirtyAll.
  std::size_t last_dirty() const { return last_dirty_; }

  const GlobalSnapshot& current() const { return buffers_[cur_]; }
  const GlobalSnapshot& previous() const { return buffers_[1 - cur_]; }

  /// The executable spec of capture(): allocate and fill a fresh snapshot,
  /// every row read from the live state. tests/test_snapshot_delta.cpp
  /// holds capture() equal to it after every event.
  GlobalSnapshot capture_full(SimTime t) const;

  std::size_t size() const { return processes_.size(); }

 private:
  /// Combined observation version of row j; strictly increases whenever
  /// any observable of process j (including its monitor-side vclock)
  /// changes, because both summands are monotone.
  std::uint64_t row_version(std::size_t j) const {
    return processes_[j]->obs_version() +
           net_.vclock_version(static_cast<ProcessId>(j));
  }
  void write_row(GlobalSnapshot& snap, std::size_t j) const;

  std::vector<me::TmeProcess*> processes_;
  const net::Network& net_;
  GlobalSnapshot buffers_[2];
  /// Per-buffer: the row version each buffer's row j was written at.
  std::vector<std::uint64_t> row_versions_[2];
  std::size_t cur_ = 0;
  std::size_t last_dirty_ = spec::kDirtyAll;
  bool primed_ = false;
};

}  // namespace graybox::lspec
