// Deterministic discrete-event scheduler.
//
// The paper's execution model (Section 3.1) is asynchronous: "every process
// executes at its own speed and messages in the channels are subject to
// arbitrary but finite transmission delays". We realize that model as a
// single-threaded discrete-event simulation: every process step, message
// delivery, client decision, fault injection, and wrapper timeout is an
// event with a simulated timestamp; the scheduler executes events in
// (time, insertion-order) order, so a run is a pure function of its seed.
//
// Monitors (src/spec, src/lspec) attach as observers and are invoked after
// every executed event, which gives them the per-step global snapshots that
// the UNITY operators (unless / stable / leads-to) are defined over.
//
// Hot-path layout (the simulator substrate is the dominant cost of every
// BENCH_* grid, so the core is allocation-free in steady state):
//
//   * Callbacks are InplaceFunction<void(), 48> — captures up to 48 bytes
//     live inside the event slot, so scheduling allocates nothing.
//   * Events live in a two-level bucketed time wheel. Near events
//     (time - wheel base < kWheelSize) go into per-tick FIFO buckets —
//     append order IS insertion order, which preserves the deterministic
//     equal-time tiebreak without any comparator. Far events overflow into
//     a (time, seq) min-heap spill level and are promoted into buckets,
//     in insertion order, when the wheel base advances — and the base only
//     advances past a tick once no event can be scheduled at it anymore,
//     so promoted events always precede later direct inserts at the same
//     tick. Execution order is therefore bit-identical to the previous
//     binary-heap implementation.
//   * Event slots are generation-stamped and recycled through a free list:
//     an EventId is (generation << 32 | slot), so cancel() is a single
//     array probe — no hashing, no tombstone set. Queue entries whose
//     generation no longer matches their slot are stale and skipped.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/inplace_function.hpp"

namespace graybox::sim {

/// Handle for a scheduled event; usable with Scheduler::cancel.
/// Encodes (generation << 32 | slot); 0 is never a valid handle.
using EventId = std::uint64_t;

/// Same-tick choice hook for systematic exploration (src/mc). When two or
/// more live events are ready at the current tick the scheduler asks the
/// hook which one runs next instead of taking insertion order. With no hook
/// installed (the default) execution stays bit-identical to the legacy
/// insertion-order tiebreak.
class ChoiceHook {
 public:
  virtual ~ChoiceHook() = default;
  /// `tags[i]` is the i-th ready event's tag in insertion order (0 for
  /// untagged events — timers, polls). Must return an index < count; the
  /// indexed event executes now, the rest stay queued in their original
  /// relative order.
  virtual std::size_t choose(SimTime now, const std::uint64_t* tags,
                             std::size_t count) = 0;
};

class Scheduler {
 public:
  /// Event callbacks: captures <= 48 bytes are stored inline in the event
  /// slot (every callback in src/ fits), larger ones fall back to the heap.
  using EventFn = InplaceFunction<void(), 48>;
  /// Observers run after each executed event with the current time. Same
  /// inline-storage dispatch as EventFn: the per-event observer fan-out is
  /// on the hot path, so it must not bounce through std::function.
  using Observer = InplaceFunction<void(SimTime), 48>;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Advances only while events execute.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now). Events at equal times run
  /// in scheduling order, which keeps runs deterministic.
  EventId schedule_at(SimTime t, EventFn fn);

  /// schedule_at with a caller-chosen 64-bit tag, surfaced to an installed
  /// ChoiceHook when this event ties with others at its tick. Tag 0 means
  /// "untagged" (what plain schedule_at stamps).
  EventId schedule_at_tagged(SimTime t, std::uint64_t tag, EventFn fn);

  /// Schedule `fn` `delay` ticks from now.
  EventId schedule_after(SimTime delay, EventFn fn);

  /// Cancel a pending event. Returns false if it already ran, was already
  /// cancelled, or never existed. O(1): one slot probe, no hashing.
  bool cancel(EventId id);

  /// Execute the single earliest pending event. Returns false when idle.
  bool step() { return step_bounded(kNever); }

  /// Execute the single earliest pending event if its time is <= limit.
  /// Returns false when idle or when the next event lies beyond the limit
  /// (now() is left untouched in that case). The model checker's drive
  /// loop uses this to run one decision at a time under a horizon.
  bool step_until(SimTime limit) { return step_bounded(limit); }

  /// Execute every event with time <= t, then set now to t.
  void run_until(SimTime t);

  /// Execute events for `duration` ticks from the current time, saturating
  /// at kNever: a duration that would wrap past the end of simulated time
  /// runs to kNever instead of tripping run_until's t >= now precondition.
  void run_for(SimTime duration) {
    run_until(duration >= kNever - now_ ? kNever : now_ + duration);
  }

  /// Install (or with nullptr remove) the same-tick choice hook. The hook
  /// must outlive the scheduler or be removed before it dies.
  void set_choice_hook(ChoiceHook* hook) { choice_hook_ = hook; }

  /// Drain the queue completely. `max_events` bounds runaway event chains
  /// (a chain that exceeds it aborts via contract failure, since no
  /// experiment in this repository legitimately schedules that many).
  void run_all(std::uint64_t max_events = 50'000'000);

  bool idle() const { return live_ == 0; }
  std::size_t pending() const { return live_; }

  /// Total number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Register a post-event observer (monitor hook) for the scheduler's
  /// lifetime. Observers fire in registration order. Register before
  /// running, not from inside an observer.
  void add_observer(Observer obs);

  /// Cancelled-but-not-yet-reclaimed queue entries. Cancellation itself is
  /// O(1) (the slot is freed immediately; only the 8-byte queue entry
  /// lingers until visited); spill-level compaction keeps this bounded by
  /// the live event count, so long engine runs that cancel far-future
  /// timers repeatedly cannot leak.
  std::size_t tombstones() const { return bucket_stale_ + spill_stale_; }

 private:
  static constexpr std::size_t kWheelBits = 10;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kBitmapWords = kWheelSize / 64;

  /// One allocated event. `gen` increments every time the slot is freed
  /// (cancel or execution), invalidating any queue entry that still points
  /// here with the old generation.
  struct Slot {
    EventFn fn;
    /// Choice-hook tag (0 = untagged); stamped by schedule_at_tagged.
    std::uint64_t tag = 0;
    std::uint32_t gen = 1;
    bool in_spill = false;
  };
  /// Wheel bucket entry: 8 bytes, validated against the slot's generation.
  struct BucketEntry {
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Per-tick FIFO bucket. `head` indexes the next unconsumed entry so a
  /// partially drained bucket never shifts its tail.
  struct Bucket {
    std::vector<BucketEntry> entries;
    std::size_t head = 0;
  };
  /// Spill-level entry for events beyond the wheel horizon. `seq` is the
  /// global insertion tiebreaker (the wheel itself needs none: bucket
  /// append order is insertion order).
  struct SpillEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct SpillLater {
    bool operator()(const SpillEntry& a, const SpillEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  bool bucket_occupied(std::size_t idx) const {
    return (occupied_[idx >> 6] >> (idx & 63)) & 1u;
  }
  void mark_occupied(std::size_t idx) {
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_occupied(std::size_t idx) {
    occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }
  /// Circular distance (in ticks) from the wheel base to the first occupied
  /// bucket, or kWheelSize when the wheel is empty.
  std::size_t next_occupied_distance() const;

  /// Move every spill event with time < wheel_base_ + kWheelSize into its
  /// bucket, in (time, seq) order.
  void promote_spill();
  /// With no live event in the wheel, jump the base to the earliest live
  /// spill time and promote.
  void advance_to_spill();
  /// Rebuild the spill heap without stale entries once they outnumber live
  /// ones (amortized O(1) per cancel).
  void compact_spill_if_worthwhile();
  /// Drop every stale queue entry (wheel + spill). Called when the last
  /// live event is gone so an idle scheduler holds no tombstones.
  void purge_stale();

  /// Execute the earliest pending event if its time is <= limit.
  bool step_bounded(SimTime limit);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Bucket> buckets_;
  std::array<std::uint64_t, kBitmapWords> occupied_{};
  std::vector<SpillEntry> spill_;  // binary heap ordered by SpillLater
  /// Lowest simulated time currently mapped by the wheel. Never advances
  /// past a pending wheel event; always <= now_.
  SimTime wheel_base_ = 0;
  std::size_t live_ = 0;        // pending events, wheel + spill
  std::size_t wheel_live_ = 0;  // pending events currently in buckets
  std::size_t bucket_stale_ = 0;
  std::size_t spill_stale_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Observer> observers_;
  ChoiceHook* choice_hook_ = nullptr;
  /// Scratch for the hook call; member so the hot path never allocates
  /// once it has grown to the largest same-tick tie seen.
  std::vector<std::uint64_t> choice_tags_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace graybox::sim
