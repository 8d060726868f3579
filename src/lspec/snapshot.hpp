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
// ProcessSnapshot array, the two per-pair relations (knows_earlier, vector
// clocks) in one dense N×N array each. resize() is the only allocation.
// SnapshotSource keeps a fixed previous/current pair of these and re-reads
// only the rows the network's touched-pid list names (Network::touch) —
// O(changed rows) per event instead of O(N²).
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
    return knows_[j * procs.size() + k] != 0;
  }
  void set_knows_earlier(std::size_t j, std::size_t k, bool value);

  /// Monitor-side causal clock of process j (components, after its latest
  /// event).
  std::span<const std::uint64_t> vc_row(std::size_t j) const {
    return {vc_.data() + j * procs.size(), procs.size()};
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

  /// Become equal to `from`, given the two differ at most in `rows`
  /// (scalars and cached counts included). Both must be the same size with
  /// the count cache enabled.
  void copy_rows(const GlobalSnapshot& from, std::span<const ProcessId> rows);

  /// Dense N×N relations, row j at offset j * N.
  std::vector<char> knows_;
  std::vector<std::uint64_t> vc_;

  bool counts_valid_ = false;
  std::size_t eating_count_ = 0;
  std::size_t hungry_count_ = 0;
  /// Per row j: number of true knows_earlier(j, k) entries.
  std::vector<std::uint16_t> knows_true_;
};

/// Captures GlobalSnapshots from live processes and the network.
///
/// The delta path — capture() — keeps two snapshots in fixed roles:
/// current() is the latest capture and previous() the one before it, and
/// they differ exactly in the rows the latest capture re-read. Each capture
/// first copies those rows of current() into previous(), then takes the
/// network's touched-pid list and re-reads just those rows from the live
/// processes into current(). last_dirty() names that change as
/// Monitor::step's dirty hint. A network has one touched list, so it feeds
/// one SnapshotSource.
class SnapshotSource {
 public:
  /// Touches every pid, so the first capture reads every row.
  SnapshotSource(std::vector<me::TmeProcess*> processes, net::Network& net);

  /// Delta capture. Returns current(); previous() now holds the capture
  /// before it.
  const GlobalSnapshot& capture(SimTime t);

  /// Dirty summary of the latest capture() relative to the snapshot before
  /// it: spec::kDirtyNone, a single process id, or spec::kDirtyAll.
  std::size_t last_dirty() const { return last_dirty_; }

  const GlobalSnapshot& current() const { return cur_; }
  const GlobalSnapshot& previous() const { return prev_; }

  /// The executable spec of capture(): allocate and fill a fresh snapshot,
  /// every row read from the live state. tests/test_snapshot_delta.cpp
  /// holds capture() equal to it after every event.
  GlobalSnapshot capture_full(SimTime t) const;

 private:
  void write_row(GlobalSnapshot& snap, std::size_t j) const;

  std::vector<me::TmeProcess*> processes_;
  net::Network& net_;
  /// Sized at the first capture, not in the constructor, so building a
  /// harness does not pay for the N×N pair (1.2 MB at N=256).
  GlobalSnapshot prev_;
  GlobalSnapshot cur_;
  /// The rows the latest capture re-read, i.e. where prev_ and cur_ differ.
  std::vector<ProcessId> reread_;
  std::size_t last_dirty_ = spec::kDirtyAll;
};

}  // namespace graybox::lspec
