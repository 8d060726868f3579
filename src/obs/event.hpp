// Typed observability events: the vocabulary of "what happened" in a run.
//
// The paper's whole argument is about observable convergence (Section 2):
// a run stabilizes iff violations are confined to a prefix, and the
// interesting quantity is the divergent window between the last fault and
// the last violation. These events are the raw material for answering
// *how* a run converged — which clause fired, when wrapper actions
// corrected state, how traffic and violations decayed after a burst.
//
// An Event is a compact POD: sim-time, a kind, the acting process, an
// optional peer, and a handful of payload integers whose meaning depends on
// the kind. No strings are stored; human-readable text is rendered lazily
// at dump time (EventBus::render), so recording is a ring write.
//
// The codes an Event carries are the paper's own small vocabulary, defined
// here once for every layer: the message kinds of Section 5, the process
// states t/h/e of Section 3.2, the fault model of Section 3.1 and the
// level-1 wrapper's local predicates. net and me re-export theirs through
// using-declarations; obs renders them without knowing the layers above.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "obs/provenance.hpp"

namespace graybox::obs {

enum class EventKind : std::uint8_t {
  kSend = 0,           ///< Network::send (pid -> peer, payload = ts.counter)
  kDeliver,            ///< message left a channel (pid = receiver)
  kDrop,               ///< message(s) destroyed by a fault (payload = count)
  kLocalStep,          ///< program transition other than CS enter/exit
  kCsEnter,            ///< h -> e (pid entered the critical section)
  kCsExit,             ///< e -> t (pid left the critical section)
  kFaultInjected,      ///< FaultInjector applied a fault (a = fault code)
  kWrapperCorrection,  ///< W'j resent REQj to a stale peer (pid -> peer)
  kMonitorViolation,   ///< a spec monitor reported (monitor = index)
  kLocalCorrection,    ///< level-1 wrapper repaired local state (a = pred)
};
inline constexpr std::size_t kEventKindCount = 10;

/// The three wire message kinds (Section 5). Release is Lamport ME only.
enum class MsgType : std::uint8_t { kRequest = 0, kReply = 1, kRelease = 2 };

/// A TME process's state t.j / h.j / e.j (Section 3.2).
enum class TmeState : std::uint8_t { kThinking = 0, kHungry = 1, kEating = 2 };

/// Every fault the fault model (Section 3.1) lets happen, in code order.
/// The first kMixKindCount kinds are the ones a random net::FaultMix
/// draws; the lifecycle kinds after them ("processes ... fail, recover",
/// plus network partitions) come in pairs, placed by the sustained load and
/// the model checker.
enum class FaultKind : std::uint8_t {
  kMessageDrop = 0,
  kMessageDuplicate,
  kMessageCorrupt,
  kMessageReorder,
  kSpuriousMessage,
  kProcessCorrupt,
  kChannelClear,
  kProcessCrash,
  kProcessRecover,
  kPartition,
  kPartitionHeal,
};
inline constexpr std::size_t kFaultKindCount = 11;
inline constexpr std::size_t kMixKindCount = 7;

/// The level-1 wrapper's intra-process predicates (wrapper/local_wrapper.hpp).
enum class LocalPredicate : std::uint8_t {
  kReqTracksClock = 0,  ///< P1: thinking REQ not glued to the clock
  kForeignReq = 1,      ///< P2: competing on a request j never issued
  kReqAboveClock = 2,   ///< P3: competing on a request above own clock
};

/// One name per code. A value past its enum (a corrupted or unknown code)
/// gets the enum's fallback name: unknown-event, corrupt-type,
/// corrupt-state, unknown-fault, corrupt-predicate.
const char* to_string(EventKind kind);
const char* to_string(MsgType type);
const char* to_string(TmeState state);
const char* to_string(FaultKind kind);
const char* to_string(LocalPredicate predicate);

/// One recorded event. Field meaning by kind:
///
///   kSend / kDeliver        pid = sender, peer = receiver, a = MsgType,
///                           payload = timestamp counter, aux = timestamp
///                           pid, flags bit 0 = sent by a wrapper
///   kDrop                   payload = number of messages destroyed
///   kLocalStep/kCsEnter/
///   kCsExit                 pid = process, a = from-state, b = to-state
///                           (TmeState codes)
///   kFaultInjected          a = FaultKind, pid = corrupted, crashed or
///                           recovered process (process faults only)
///   kWrapperCorrection      pid = wrapped process, peer = stale peer
///   kMonitorViolation       monitor = index in the owning MonitorSet
///   kLocalCorrection        pid = repaired process, a = the violated
///                           LocalPredicate
struct Event {
  SimTime time = 0;
  std::uint64_t payload = 0;
  ProcessId pid = kNoProcess;
  ProcessId peer = kNoProcess;
  std::uint32_t aux = 0;
  std::uint16_t monitor = 0;
  EventKind kind = EventKind::kSend;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t flags = 0;

  /// Message uid for kSend/kDeliver (0 otherwise): lets the causal DAG pair
  /// each delivery with its exact send even under duplication and faults.
  std::uint64_t uid = 0;
  /// Active fault provenance at record time: the message's taint for
  /// kSend/kDeliver, the acting process's taint for transitions and
  /// corrections, the minted id for kFaultInjected, and the attributed
  /// root-cause set for kMonitorViolation. Empty when provenance is off.
  TaintSet taint{};

  static constexpr std::uint8_t kFromWrapper = 1u << 0;
};

/// Count / first-time / last-time aggregate of one event class. The
/// EventBus keeps one per event kind even though its ring evicts, and the
/// fault injector one per fault kind: timelines need exact firsts and lasts.
struct KindStats {
  std::uint64_t count = 0;
  SimTime first = kNever;
  SimTime last = kNever;

  void note(SimTime t) {
    if (count == 0 || t < first) first = t;
    if (count == 0 || t > last) last = t;
    ++count;
  }

  /// Fold another aggregate of the same event class into this one.
  void merge(const KindStats& other) {
    if (other.count == 0) return;
    if (count == 0 || other.first < first) first = other.first;
    if (count == 0 || other.last > last) last = other.last;
    count += other.count;
  }
};

}  // namespace graybox::obs
