// Wire messages of the timestamp-based mutual-exclusion protocols.
//
// Both programs in the paper (Ricart-Agrawala Section 5.1, Lamport Section
// 5.2) exchange exactly three message kinds, each carrying one timestamp:
//
//   Request(REQj)  - "send" of Request Spec; also what the wrapper W resends
//   Reply(REQj)    - "send" of Reply Spec; carries the *replier's current
//                    REQ*, which is what lets the receiver's view j.REQk be
//                    "eventually set to REQk" (Section 4's correctness
//                    argument for W) and preserves invariant I
//   Release(REQj)  - Lamport ME only; retires the sender's queue entry
//
// The fault model (Section 3.1) corrupts, loses, and duplicates messages
// arbitrarily, so receivers must treat every field as untrusted; all three
// handler paths in src/me are total functions of the message.
#pragma once

#include <cstdint>
#include <string>

#include "clock/timestamp.hpp"
#include "clock/vector_clock.hpp"
#include "common/types.hpp"
#include "obs/event.hpp"

namespace graybox::net {

using obs::MsgType;
using obs::to_string;

/// Uids at or above this value are monitor-side stamps for fabricated
/// (fault-injected) messages; Channel::fault_inject assigns them so that
/// distinct spurious messages never alias each other (or uid 0) in the
/// monitors' send/delivery correlation. Network::send uids count up from 1
/// and can never reach this range.
inline constexpr std::uint64_t kSpuriousUidBase = std::uint64_t{1} << 63;

/// True for uids stamped onto fabricated messages. Monitors that correlate
/// deliveries against real sends (e.g. FIFO order) must skip these.
constexpr bool is_spurious_uid(std::uint64_t uid) {
  return uid >= kSpuriousUidBase;
}

struct Message {
  MsgType type = MsgType::kRequest;
  ProcessId from = 0;
  ProcessId to = 0;
  clk::Timestamp ts{};

  /// True when the message was (re)sent by a graybox wrapper rather than by
  /// the wrapped program. Metadata for accounting only: receivers must not
  /// (and do not) read it, otherwise the wrapper would no longer be a plain
  /// Lspec-level component.
  bool from_wrapper = false;

  /// Unique per physical send; lets monitors correlate send/delivery and
  /// detect duplication. Assigned by Network::send.
  std::uint64_t uid = 0;

  /// Monitor-side causal metadata maintained by the Network, never read by
  /// the programs under test. Used by the ME3 (FCFS) monitor to decide
  /// Lamport's happened-before relation exactly. The sender's full vector
  /// clock after its send tick; fabricated messages carry an empty clock.
  clk::VectorClock vc{};

  /// Monitor-side fault provenance, never read by the programs under test.
  /// Network::send stamps the sender's active taint here; the fault
  /// injector adds ids directly when it corrupts or fabricates a message
  /// in flight; delivery merges it into the receiver's taint. Empty
  /// whenever provenance tracking is disabled.
  obs::TaintSet taint{};

  std::string to_string() const;
};

}  // namespace graybox::net
