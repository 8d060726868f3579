// Always-clean program conformance monitors.
//
// These check the clauses of Lspec that constrain *program transitions*
// (as opposed to global configurations): Structural/Flow Spec, Timestamp
// Spec's monotone-send obligation, and Communication Spec (FIFO). Fault
// actions are not program transitions — the paper's model treats them as
// external perturbations — so:
//
//   * StructuralSpecMonitor listens to the processes' state-change
//     callbacks, which fire only for program transitions. It must stay
//     clean in EVERY run, faulty or not: a violation is a bug in this
//     library's programs, never an injected fault.
//   * SendMonotonicityMonitor and FifoMonitor watch real message traffic;
//     channel faults do perturb what they see, so they are asserted clean
//     only in fault-free runs (interference-freedom and throughput
//     experiments) and during clean suffixes otherwise.
#pragma once

#include <vector>

#include "me/tme_process.hpp"
#include "net/network.hpp"
#include "spec/violation.hpp"

namespace graybox::lspec {

/// Structural/Flow Spec: the only legal program transitions are t->h
/// (request), h->e (CS entry), e->t (release).
class StructuralSpecMonitor {
 public:
  /// Subscribes to every process's state observer.
  StructuralSpecMonitor(const std::vector<me::TmeProcess*>& procs,
                        sim::Scheduler& sched);

  const std::vector<spec::Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::uint64_t transitions_checked() const { return transitions_checked_; }

 private:
  void on_transition(ProcessId pid, me::TmeState from, me::TmeState to);
  sim::Scheduler& sched_;
  std::vector<spec::Violation> violations_;
  std::uint64_t transitions_checked_ = 0;
};

/// Timestamp Spec consequence: each process's outgoing timestamps are
/// nondecreasing (logical clocks never run backwards across sends).
class SendMonotonicityMonitor {
 public:
  /// Subscribes to the network's send observer.
  SendMonotonicityMonitor(net::Network& net, sim::Scheduler& sched);

  const std::vector<spec::Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::uint64_t sends_checked() const { return sends_checked_; }

 private:
  void on_send(const net::Message& msg);
  sim::Scheduler& sched_;
  std::vector<clk::Timestamp> last_sent_;
  std::vector<char> seen_;
  std::vector<spec::Violation> violations_;
  std::uint64_t sends_checked_ = 0;
};

/// Communication Spec: channels are FIFO — per directed pair, delivery
/// order equals send order. Judged by the uids Network::send assigns;
/// fabricated (fault-injected) messages carry uids from the reserved
/// spurious range (net::kSpuriousUidBase and up) and are skipped.
class FifoMonitor {
 public:
  FifoMonitor(net::Network& net, sim::Scheduler& sched);

  const std::vector<spec::Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::uint64_t deliveries_checked() const { return deliveries_checked_; }

 private:
  void on_delivery(const net::Message& msg);
  sim::Scheduler& sched_;
  std::size_t n_;
  std::vector<std::uint64_t> last_uid_;  // per directed pair
  std::vector<spec::Violation> violations_;
  std::uint64_t deliveries_checked_ = 0;
};

}  // namespace graybox::lspec
