// The wire representation of a monitor-side vector clock.
//
// Dense clocks made every message at N=256 carry (and heap-copy) a 2KB
// component array even though, between two consecutive sends on one channel,
// only the components the sender witnessed in that window actually changed.
// A ClockStamp carries just that changed set as {component, value} entries;
// the receiver folds them (componentwise max) into its own clock, which is
// bit-identical to witnessing the full dense clock because every omitted
// component is unchanged since the previous stamp enqueued on the same FIFO
// channel — the receiver already folded a value at least as large.
//
// Three modes:
//   * empty — fault-fabricated messages; delivery just ticks (pre-existing
//     semantics for size-mismatched clocks);
//   * dense — a full VectorClock, used when the changed set exceeds the
//     entry budget, for the first send on a channel after a clear, and for
//     every send in reference mode (Network::set_dense_stamps, set by
//     HarnessConfig::reference_substrate);
//   * delta — the changed components only, inline up to kInlineEntries and
//     spilling to the heap only when fault repairs union stamps together.
//
// The delta encoding leans on channel FIFO order. Faults that remove or
// reorder queued messages break the "previous stamp was folded first"
// induction, so the channel repairs stamps at fault time (absorb_older):
// the surviving successor absorbs the removed stamp's entries, restoring
// exactly the information a dense stamp would have carried.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "clock/vector_clock.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"

namespace graybox::clk {

class ClockStamp {
 public:
  /// Entries kept inline in the message; beyond this a send falls back to a
  /// dense stamp (fault repairs may still spill past it, see absorb_older).
  static constexpr std::size_t kInlineEntries = 14;

  struct Entry {
    std::uint32_t comp = 0;
    std::uint64_t value = 0;
  };

  /// Empty stamp: a fabricated message with no clock information.
  ClockStamp() = default;

  ClockStamp(const ClockStamp& other) { copy_from(other); }
  ClockStamp& operator=(const ClockStamp& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  ClockStamp(ClockStamp&&) noexcept = default;
  ClockStamp& operator=(ClockStamp&&) noexcept = default;

  /// Full-clock stamp (the pre-sparse encoding, byte-for-byte).
  static ClockStamp dense(const VectorClock& clock);

  /// Empty delta stamp for a system of `n` processes; fill via add_entry.
  static ClockStamp delta(ProcessId origin, std::size_t n);

  bool empty() const { return mode_ == Mode::kEmpty; }
  bool is_dense() const { return mode_ == Mode::kDense; }
  bool is_delta() const { return mode_ == Mode::kDelta; }

  /// Number of clock components this stamp speaks for (0 when empty).
  /// Network::deliver treats size() == n as "genuine", matching the old
  /// dense-clock check.
  std::size_t size() const;

  ProcessId origin() const { return origin_; }

  /// The full clock; requires is_dense().
  const VectorClock& dense_clock() const {
    GBX_EXPECTS(is_dense());
    return dense_;
  }

  /// The changed components; requires is_delta().
  std::span<const Entry> entries() const {
    GBX_EXPECTS(is_delta());
    return spill_ ? std::span<const Entry>(spill_->data(), spill_->size())
                  : std::span<const Entry>(inline_, count_);
  }

  /// Append one changed component to a delta stamp. Returns false when the
  /// inline budget is exhausted — the caller falls back to a dense stamp.
  /// (Only absorb_older may grow a stamp past the inline budget.)
  bool add_entry(std::uint32_t comp, std::uint64_t value);

  /// Fault repair: incorporate a stamp that was enqueued *before* this one
  /// on the same channel but will no longer be delivered first (dropped,
  /// cleared, or reordered behind). This stamp's entries win on conflict —
  /// same-sender clocks are componentwise monotone, so the newer value
  /// already dominates. A delta absorbing a dense stamp densifies: the
  /// older full clock overlaid with this stamp's entries reconstructs this
  /// message's full at-send clock exactly.
  void absorb_older(const ClockStamp& older);

  /// Materialize as a VectorClock (delta entries over zeros). Test/debug
  /// helper — the hot paths fold entries directly.
  VectorClock to_clock() const;

  std::string to_string() const;

 private:
  enum class Mode : std::uint8_t { kEmpty, kDense, kDelta };

  bool contains(std::uint32_t comp) const;
  void push_unchecked(Entry e);
  void copy_from(const ClockStamp& other);

  Mode mode_ = Mode::kEmpty;
  std::uint16_t count_ = 0;   // valid entries in inline_ (unused when spilled)
  ProcessId origin_ = 0;
  std::uint32_t n_ = 0;       // system size a delta stamp speaks for
  Entry inline_[kInlineEntries];
  /// Heap overflow, engaged only by fault-repair unions; when set it holds
  /// ALL entries and inline_ is abandoned.
  std::unique_ptr<std::vector<Entry>> spill_;
  VectorClock dense_;         // engaged only in dense mode
};

}  // namespace graybox::clk
