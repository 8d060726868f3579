// One directed FIFO interprocess channel (Communication Spec: "channels are
// FIFO"), with the fault surface of Section 3.1: in-flight messages can be
// dropped, duplicated, corrupted, or reordered, the channel can be cleared
// ("improperly initialized"), and spurious messages can be injected.
//
// Mechanics: enqueue computes an arrival time that is monotone along the
// queue (max of sampled delay and the previous tail arrival), so fault-free
// delivery is exactly FIFO. Each enqueue schedules one "delivery tick"; a
// tick delivers the current queue head, whatever faults did to the queue in
// between. Ticks on an empty queue are no-ops, which is how dropped
// messages silently consume their tick.
//
// Timing invariants of the fault surface (fixed; previously the first two
// were silently violated):
//   - Every scheduled tick time is folded into `last_arrival_`, including
//     the ticks added by fault_duplicate and fault_inject, so arrival times
//     stay monotone along the queue even across faults: a normal enqueue
//     issued after a fault can tie with, but never precede, the fault's
//     tick, and is therefore never delivered out of delay order by it.
//   - fault_clear ("improperly initialized channel") forgets *everything*:
//     the queued messages, the delay floor (`last_arrival_` resets to now),
//     and the pending delivery ticks — the tick epoch is bumped, so ticks
//     scheduled before the clear become no-ops instead of delivering
//     post-clear messages early. A cleared channel behaves exactly like a
//     freshly constructed one.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "net/delay.hpp"
#include "net/message.hpp"
#include "net/message_ring.hpp"
#include "sim/scheduler.hpp"

namespace graybox::net {

/// Choice-hook tag for delivery ticks (sim::ChoiceHook): bit 63 marks
/// "delivery", the low 32 bits encode the directed channel as
/// (from << 16 | to). Untagged events (tag 0 — timers, polls, client
/// decisions) are treated as always-dependent by the explorer.
inline constexpr std::uint64_t kDeliveryTagBit = std::uint64_t{1} << 63;
inline constexpr std::uint64_t make_delivery_tag(ProcessId from,
                                                 ProcessId to) {
  return kDeliveryTagBit | (std::uint64_t{from} << 16) | std::uint64_t{to};
}
inline constexpr bool is_delivery_tag(std::uint64_t tag) {
  return (tag & kDeliveryTagBit) != 0;
}
inline constexpr ProcessId delivery_tag_from(std::uint64_t tag) {
  return static_cast<ProcessId>((tag >> 16) & 0xffff);
}
inline constexpr ProcessId delivery_tag_to(std::uint64_t tag) {
  return static_cast<ProcessId>(tag & 0xffff);
}

class Channel {
 public:
  /// `deliver` is invoked with each message as it leaves the channel.
  using DeliverFn = std::function<void(const Message&)>;

  Channel(sim::Scheduler& sched, DelayModel delay, Rng rng, DeliverFn deliver);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Normal-path send: append and schedule a FIFO delivery tick. The
  /// rvalue overload moves the message into its ring slot (Network::send
  /// builds the message once and hands it off without a copy).
  void enqueue(Message&& msg);
  void enqueue(const Message& msg) { enqueue(Message(msg)); }

  std::size_t in_flight() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// Read-only live view of the in-flight messages, oldest first
  /// (monitors and the fault injector); indexes like the deque it shims.
  MessageView contents() const { return MessageView(queue_); }

  // --- Fault surface (used by FaultInjector and scenario tests) ---------

  /// Remove the in-flight message at `index`. Its tick becomes a no-op.
  void fault_drop(std::size_t index);

  /// Duplicate the in-flight message at `index` (copy placed right behind
  /// the original, extra delivery tick scheduled immediately).
  void fault_duplicate(std::size_t index);

  /// Overwrite fields of the in-flight message at `index`.
  void fault_corrupt(std::size_t index, const Message& corrupted);

  /// Swap two in-flight messages (transient FIFO violation).
  void fault_swap(std::size_t a, std::size_t b);

  /// Add a provenance id to the in-flight message at `index` (the fault
  /// injector marking the physical carrier it just tampered with). Like
  /// fault_corrupt, this never rewrites causality metadata — it only
  /// augments the monitor-side taint the message already carried.
  void fault_taint(std::size_t index, obs::ProvenanceId id);

  /// Insert a fabricated message (it never passed through Network::send).
  /// If `msg.uid == 0` the channel stamps a fresh uid from the reserved
  /// spurious range (>= kSpuriousUidBase) so fabricated messages never
  /// alias each other in the monitors' send/delivery correlation.
  void fault_inject(const Message& msg);

  /// Drop everything in flight ("improperly initialized channel") and
  /// forget the delay floor and pending ticks; see header comment.
  void fault_clear();

  // --- Accounting -------------------------------------------------------

  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped_by_fault() const { return dropped_by_fault_; }

  /// Arrival time of the queue tail — the monotone floor every future
  /// delivery tick respects (tests assert the invariant directly).
  SimTime last_arrival() const { return last_arrival_; }

  /// Network-owned aggregate in-flight counter; the channel mirrors every
  /// queue-size change into it so Network::in_flight() is O(1) instead of
  /// an O(n^2) walk over all channels. Null for standalone channels.
  void set_in_flight_counter(std::size_t* counter) {
    in_flight_counter_ = counter;
    if (in_flight_counter_ != nullptr) *in_flight_counter_ += queue_.size();
  }

  /// Network-owned counter for the reserved spurious-uid range, shared by
  /// all channels of one network so stamps are globally unique. Standalone
  /// channels fall back to a private counter.
  void set_spurious_uid_counter(std::uint64_t* counter) {
    spurious_uid_counter_ = counter;
  }

  /// Tag stamped on this channel's delivery ticks, surfaced to an installed
  /// sim::ChoiceHook. Network sets make_delivery_tag(from, to); standalone
  /// channels default to 0 (untagged).
  void set_choice_tag(std::uint64_t tag) { choice_tag_ = tag; }

 private:
  void schedule_tick(SimTime arrival);
  void on_tick(std::uint64_t epoch);
  void adjust_in_flight(std::ptrdiff_t delta) {
    if (in_flight_counter_ != nullptr)
      *in_flight_counter_ = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(*in_flight_counter_) + delta);
  }

  sim::Scheduler& sched_;
  DelayModel delay_;
  Rng rng_;
  DeliverFn deliver_;
  MessageRing queue_;
  /// Arrival time of the most recently scheduled delivery tick (normal or
  /// fault-made); enforces FIFO monotonicity of scheduled ticks.
  SimTime last_arrival_ = 0;
  /// Bumped by fault_clear; ticks scheduled under an older epoch are stale
  /// and deliver nothing.
  std::uint64_t epoch_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_by_fault_ = 0;
  std::size_t* in_flight_counter_ = nullptr;
  std::uint64_t* spurious_uid_counter_ = nullptr;
  std::uint64_t choice_tag_ = 0;
  /// Fallback spurious-uid source for channels outside a Network.
  std::uint64_t local_spurious_uid_ = kSpuriousUidBase;
};

}  // namespace graybox::net
