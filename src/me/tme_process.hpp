// The TME process interface: exactly the observables of Lspec.
//
// Lspec (Section 3.2) speaks about a process j through h.j / e.j / t.j, its
// request timestamp REQj, and its knowledge about peers ("REQj lt j.REQk").
// TmeProcess exposes precisely that surface — and nothing else — so that
// everything built on top of it is graybox by construction:
//
//   * the wrapper (src/wrapper) reads only state(), req(), knows_earlier()
//     and therefore works for ANY implementation of this interface;
//   * the Lspec/TME Spec monitors (src/lspec) judge conformance through the
//     same surface;
//   * concrete programs (RicartAgrawala, LamportMe) keep their whitebox
//     variables private.
//
// The base class also implements the parts of Lspec that both programs
// share — and shares them in an *everywhere* fashion (correct from any
// state, since any state can be fault-reached):
//
//   * Structural/Flow Spec: the only program transitions are t->h (request),
//     h->e (CS entry), e->t (release);
//   * Release Spec: whenever t.j holds, REQj tracks ts.j (the clock of the
//     most recent local event);
//   * CS Entry Spec: h.j /\ (forall k != j : REQj lt j.REQk) => enter, with
//     knows_earlier(k) supplying the implementation-specific reading of
//     "REQj lt j.REQk";
//   * Timestamp Spec: a Lamport logical clock witnesses every received
//     timestamp.
#pragma once

#include <cstdint>
#include <functional>

#include "clock/logical_clock.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "obs/event_bus.hpp"

namespace graybox::me {

using obs::TmeState;
using obs::to_string;

class TmeProcess {
 public:
  TmeProcess(ProcessId pid, net::Network& net);
  virtual ~TmeProcess() = default;

  TmeProcess(const TmeProcess&) = delete;
  TmeProcess& operator=(const TmeProcess&) = delete;

  ProcessId pid() const { return pid_; }
  std::size_t peers() const { return net_.size(); }

  // --- Lspec observables (the graybox surface) --------------------------

  TmeState state() const { return state_; }
  bool thinking() const { return state_ == TmeState::kThinking; }
  bool hungry() const { return state_ == TmeState::kHungry; }
  bool eating() const { return state_ == TmeState::kEating; }

  /// REQj: while hungry/eating, the timestamp of the current request;
  /// while thinking, ts.j (Release Spec keeps it glued to the clock).
  clk::Timestamp req() const { return req_; }

  /// The local reading of "REQj lt j.REQk": does this process know that its
  /// own request is earlier than k's? CS entry requires it for all k != j;
  /// the wrapper resends REQj exactly to the peers for which it is false.
  virtual bool knows_earlier(ProcessId k) const = 0;

  /// Diagnostic rendering of j.REQk where the implementation has one
  /// (Ricart-Agrawala stores it directly; Lamport synthesizes it).
  virtual clk::Timestamp view_of(ProcessId k) const = 0;

  // --- Client surface (Client Spec) --------------------------------------

  /// Issue a CS request (t -> h). Total: ignored unless thinking.
  void request_cs();

  /// Leave the CS (e -> t). Total: ignored unless eating.
  void release_cs();

  /// Re-evaluate enabled actions (CS entry, thinking-REQ refresh) without
  /// any new input. Clients call this periodically; it is what guarantees
  /// progress resumes after a state corruption, since corruptions do not
  /// deliver messages.
  void poll();

  // --- Network plumbing ---------------------------------------------------

  /// Deliver one message. Total in the message contents (the fault model
  /// corrupts every field).
  void on_message(const net::Message& msg);

  // --- Fault surface ------------------------------------------------------

  /// Transient arbitrary state corruption (Section 3.1): every
  /// implementation variable may be overwritten with an arbitrary
  /// type-valid value. Does NOT count as a program transition: no state
  /// change callback fires, and no enabled action runs until the next
  /// event reaches the process. Dispatches to do_corrupt() so the
  /// snapshot source hears of the change for every implementation.
  void corrupt_state(Rng& rng) {
    do_corrupt(rng);
    mark_observably_changed();
  }

  /// Surgical corruption, for scenario tests that need a *specific*
  /// adversarial state rather than a random one. Part of the fault surface,
  /// not of the protocol: these bypass the program transitions exactly like
  /// corrupt_state does.
  void fault_set_state(TmeState s) {
    state_ = s;
    mark_observably_changed();
  }
  void fault_set_req(clk::Timestamp ts) {
    req_ = ts;
    mark_observably_changed();
  }
  void fault_set_clock(std::uint64_t counter) {
    lc_.corrupt(counter);
    mark_observably_changed();
  }

  // --- Introspection ------------------------------------------------------

  std::uint64_t cs_entries() const { return cs_entries_; }
  const clk::LogicalClock& clock() const { return lc_; }

  /// Observes *program* transitions (request/entry/release), not fault
  /// jumps. Used by the structural-spec monitor and by clients.
  using StateChangeFn =
      std::function<void(TmeState from, TmeState to)>;
  void add_state_observer(StateChangeFn fn) {
    state_observers_.push_back(std::move(fn));
  }

  /// Attach the observability bus; program transitions are recorded as
  /// kCsEnter (h->e), kCsExit (e->t), or kLocalStep events.
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Attach the provenance tracker; delivered messages then merge their
  /// taint into this process and recorded transitions carry its active
  /// taint. nullptr (the default) disables.
  void set_provenance(obs::ProvenanceTracker* prov) { prov_ = prov; }

 protected:
  // Template-method hooks implemented by the concrete programs.
  virtual void do_request() = 0;                       // broadcast REQUEST
  virtual void do_release(clk::Timestamp new_req) = 0; // replies/releases
  virtual void handle(const net::Message& msg) = 0;    // message semantics
  virtual void do_corrupt(Rng& rng) = 0;               // randomize all state

  /// Touch this process in the network's change list (Network::touch):
  /// its graybox observables (state, REQ, clock, knows_earlier inputs) may
  /// have changed. Runs after every program event and every fault;
  /// subclass fault setters call it after mutating their whitebox
  /// variables outside the program-event paths. Conservative by design: a
  /// touch with no actual change only costs a redundant row re-read.
  void mark_observably_changed() { net_.touch(pid_); }

  /// Send helper used by subclasses (tags messages as program traffic).
  void send(ProcessId to, net::MsgType type, clk::Timestamp ts);

  /// Corrupt the base-class variables; subclasses call this from
  /// corrupt_state and then corrupt their own.
  void corrupt_base(Rng& rng);

  clk::LogicalClock& mutable_clock() { return lc_; }
  net::Network& network() { return net_; }

 private:
  void transition(TmeState to);
  /// CS Entry Spec: enter when hungry and knows_earlier holds for all peers.
  void maybe_enter();
  /// Release Spec: while thinking, REQ tracks the clock.
  void refresh_thinking_req();
  void after_event();

  ProcessId pid_;
  net::Network& net_;
  clk::LogicalClock lc_;
  TmeState state_ = TmeState::kThinking;
  clk::Timestamp req_{};
  std::uint64_t cs_entries_ = 0;
  std::vector<StateChangeFn> state_observers_;
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
};

}  // namespace graybox::me
