// Causal fault provenance: which injected fault caused which deviation.
//
// The paper's central quantity is the divergent window between an injected
// fault and the last Spec violation (Sections 2 and 5), but the window alone
// says only *that* violations happened — not which fault caused them,
// through which messages the corruption propagated, or how far it spread
// before the wrapper contained it. This module adds the missing attribution:
//
//   * every FaultInjector / lifecycle injection mints a deterministic
//     ProvenanceId (sequential under the run's seed);
//   * the corruption taints its target — the in-flight message or the
//     process state — as a small fixed-capacity TaintSet;
//   * taint propagates along the only channels state can flow through:
//     sends inherit the sender's taint, deliveries merge the message's
//     taint into the receiver, transitions carry the process's taint;
//   * a wrapper correction clears the corrected process's taint — the
//     divergence it was spreading is contained there;
//   * monitor violations are attributed to the union of active taint, so
//     every violation maps back to >= 1 root-cause fault.
//
// Cost model matches the EventBus: with provenance disabled every producer
// hook is one predicted null-pointer branch; enabled, the per-event path is
// a handful of array compares and writes — the only allocation is one
// BlastRadius row and one ceil(N/64)-word reach row per *injected fault*
// (mint time, never per event).
// bench_substrate_micro::BM_ProvenanceRecord prices both sides.
//
// Layering: this header sits at the bottom of gbx_obs (types only, no
// EventBus dependency) so net::Message and obs::Event can embed a TaintSet.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace graybox::obs {

/// Identifies one injected fault. Minted sequentially from 1 by the
/// ProvenanceTracker, so ids are a pure function of the run's seed.
using ProvenanceId = std::uint32_t;

/// "No fault": the taint-free value.
inline constexpr ProvenanceId kNoProvenance = 0;

/// A small fixed-capacity set of provenance ids, piggybacked on every
/// net::Message and obs::Event and kept per process. No heap, trivially
/// copyable: stamping taint onto the per-event path is a ~20-byte copy.
///
/// Overflow semantics (pinned by TaintOverflow tests): the set saturates
/// *keeping the oldest ids* — root causes outrank the corruption they
/// transitively caused — so ids added after the 4th distinct one are
/// dropped, NOT the oldest. The cost is that a violation under more than
/// kCapacity concurrent faults under-attributes the newest injections; the
/// set counts every dropped id (`dropped`, saturating at 255) and the
/// ProvenanceTracker rolls those drops up into taint_overflows() /
/// the `provenance.taint_overflows` metric so under-attribution is
/// detectable instead of silent.
struct TaintSet {
  static constexpr std::size_t kCapacity = 4;

  ProvenanceId ids[kCapacity] = {};
  std::uint8_t count = 0;
  /// Distinct ids this set refused for lack of room (saturates at 255).
  std::uint8_t dropped = 0;

  bool empty() const { return count == 0; }
  std::size_t size() const { return count; }
  ProvenanceId operator[](std::size_t i) const { return ids[i]; }
  bool overflowed() const { return dropped != 0; }

  bool contains(ProvenanceId id) const {
    for (std::size_t i = 0; i < count; ++i) {
      if (ids[i] == id) return true;
    }
    return false;
  }

  /// Insert `id`; returns true when it was not already present (and fit).
  bool add(ProvenanceId id) {
    if (id == kNoProvenance || contains(id)) return false;
    if (count == kCapacity) {
      // Saturate, keeping the oldest (root-cause) ids; count the drop.
      if (dropped != 0xff) ++dropped;
      return false;
    }
    ids[count++] = id;
    return true;
  }

  void merge(const TaintSet& other) {
    for (std::size_t i = 0; i < other.count; ++i) add(other.ids[i]);
    note_dropped(other.dropped);
  }

  /// Fold `n` upstream drops into this set's saturating drop count.
  void note_dropped(std::uint8_t n) {
    dropped = static_cast<std::uint8_t>(
        dropped + n >= 0xff ? 0xff : dropped + n);
  }

  void clear() {
    count = 0;
    dropped = 0;
  }
};

/// Per-fault spread aggregate: how far one injection's corruption traveled
/// before the wrappers contained it. Owned by the ProvenanceTracker, one
/// row per minted id, folded into RunStats and its provenance.* metric
/// samples by the harness (all sim-domain values, hence deterministic).
struct BlastRadius {
  ProvenanceId id = kNoProvenance;
  /// The fault's FaultKind (obs/event.hpp), as a byte: this header sits
  /// below the vocabulary.
  std::uint8_t code = 0;
  /// Corrupted process for process-targeting faults; kNoProcess otherwise.
  ProcessId origin = kNoProcess;
  SimTime injected_at = 0;

  /// Distinct processes this id ever tainted. Re-tainting a corrected
  /// process is not new spread — the blast radius measures reach.
  std::uint32_t processes_tainted = 0;
  /// Messages that carried this id onto the wire (sends inheriting sender
  /// taint, plus in-flight messages tainted directly by the injector).
  std::uint64_t messages_tainted = 0;
  /// Monitor violations attributed to this id.
  std::uint64_t violations_attributed = 0;
  SimTime last_violation = kNever;

  /// Injection -> last attributed violation: how long this fault's
  /// corruption stayed externally visible. 0 when nothing was attributed.
  SimTime containment() const {
    if (last_violation == kNever || last_violation < injected_at) return 0;
    return last_violation - injected_at;
  }
};

/// The run-wide provenance authority: mints ids, owns the per-process
/// taint sets (so the network — a layer below the processes — can read
/// sender taint at send time), and accumulates per-fault BlastRadius rows.
/// Producers hold a nullable pointer; null = provenance disabled, one
/// predicted branch per would-be hook.
class ProvenanceTracker {
 public:
  explicit ProvenanceTracker(std::size_t n);

  std::size_t processes() const { return process_taint_.size(); }

  /// Mint the id for one injected fault (the only allocating call, at
  /// fault time). `origin` names the corrupted process where one exists.
  ProvenanceId mint(std::uint8_t code, ProcessId origin, SimTime now);

  /// Active taint of one process (what its sends and transitions carry).
  const TaintSet& process_taint(ProcessId pid) const {
    return process_taint_[pid];
  }

  /// Taint `pid` with one id (state corruption / improper re-init).
  void taint_process(ProcessId pid, ProvenanceId id);
  /// Merge a delivered message's taint into the receiver.
  void merge_process(ProcessId pid, const TaintSet& taint);
  /// A wrapper corrected `pid`: the divergence is contained, drop its taint.
  void clear_process(ProcessId pid);

  /// Account one message that carried `taint` onto the wire.
  void note_message_taint(const TaintSet& taint);

  /// Attribute one monitor violation at `now`: the union of every
  /// process's active taint, falling back to the most recently minted id
  /// when the union is empty (the violation is inside some fault's
  /// divergent window even if its taint was already cleared or evicted),
  /// so a violation after any injection always maps to >= 1 fault.
  TaintSet attribute_violation(SimTime now);

  std::size_t minted() const { return blast_.size(); }
  const std::vector<BlastRadius>& blast() const { return blast_; }

  /// Total ids dropped from per-process taint sets because more than
  /// TaintSet::kCapacity faults were concurrently live on one process —
  /// the amount of attribution the keep-oldest saturation cost this run.
  std::uint64_t taint_overflows() const { return taint_overflows_; }

 private:
  /// Re-derive pid's membership in live_tainted_ after a mutation.
  void sync_live(ProcessId pid);

  std::vector<TaintSet> process_taint_;
  /// Sorted pids with a non-clear taint set (count or dropped nonzero).
  /// Attribution unions exactly these, so it costs O(live tainted pids),
  /// not O(N). Iterating this in order visits the same non-trivial sets, in
  /// the same order, as the full 0..N-1 scan — so the attribution union
  /// (whose keep-oldest saturation makes merge order observable) is
  /// bit-identical.
  std::vector<ProcessId> live_tainted_;
  std::vector<BlastRadius> blast_;
  /// One bit per (minted id, pid): id's row is words_per_id_ words from
  /// (id - 1) * words_per_id_, and bit p is set once id has tainted pid.
  std::vector<std::uint64_t> reached_;
  std::size_t words_per_id_;
  std::uint64_t taint_overflows_ = 0;
};

}  // namespace graybox::obs
