// The graybox stabilization wrapper for TME (paper Section 4).
//
// The paper derives, from Lspec alone, the level-2 (inter-process
// consistency) wrapper
//
//   Wj  ::  h.j  ->  (forall k : k != j /\ j.REQk lt REQj :
//                        send(REQj, j, k))
//
// and its deployable refinement with a timeout:
//
//   W'j ::  timer.j = 0 /\ h.j  ->  (forall k : k != j /\ j.REQk lt REQj :
//                        send(REQj, j, k));  timer.j := delta.j
//
// "W' is equivalent to W when delta = 0"; a positive delta only reduces
// redundant resends while the system is consistent. GrayboxWrapper is W'
// with delta configurable per process; resend_period = 0 requests the
// maximal rate the discrete-event simulation admits (one tick).
//
// Grayboxness is structural: the wrapper holds a reference to the
// TmeProcess *interface* — state(), req(), knows_earlier() — which exposes
// exactly the Lspec observables and none of the implementation variables.
// The identical wrapper object therefore stabilizes RicartAgrawala,
// LamportMe, or any future everywhere-implementation of Lspec (Theorem 8,
// Corollary 11), and the compiler enforces that it cannot peek further.
//
// The unrefined send-to-all variant (paper's first formulation of Wj, which
// resends to every peer rather than only the stale ones) is provided for
// the A3 ablation measuring how much traffic the refinement saves.
#pragma once

#include "me/tme_process.hpp"
#include "net/network.hpp"
#include "obs/event_bus.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace graybox::wrapper {

struct WrapperConfig {
  /// delta.j: the timeout between wrapper evaluations. 0 = the unrelaxed W.
  SimTime resend_period = 0;
  /// Ablation A3: if true, resend REQj to *all* peers while hungry (the
  /// paper's unrefined Wj) instead of only to peers whose view is stale.
  bool unrefined_send_all = false;
};

class GrayboxWrapper {
 public:
  /// Wraps `process`, sending through `net`. The wrapper starts disarmed;
  /// call start().
  GrayboxWrapper(sim::Scheduler& sched, net::Network& net,
                 me::TmeProcess& process, WrapperConfig config = {});

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }
  bool running() const { return timer_.running(); }

  SimTime resend_period() const { return config_.resend_period; }

  /// Number of REQUEST messages this wrapper has (re)sent.
  std::uint64_t resends() const { return resends_; }
  /// Number of timer expirations (wrapper action evaluations).
  std::uint64_t evaluations() const { return timer_.fired(); }

  /// One W'j action: evaluate the guard and resend where needed. Exposed
  /// for tests; normally driven by the internal timer.
  void evaluate();

  /// Attach the observability bus; every resend is recorded as a
  /// kWrapperCorrection event (in addition to the network's kSend).
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Attach the provenance tracker; a correcting evaluation (>= 1 resend)
  /// then clears the wrapped process's taint — the divergence it was
  /// spreading is contained by the correction. The correction events and
  /// resends themselves still carry the taint (that is the attribution).
  void set_provenance(obs::ProvenanceTracker* prov) { prov_ = prov; }

 private:
  net::Network& net_;
  me::TmeProcess& process_;
  WrapperConfig config_;
  sim::PeriodicTimer timer_;
  std::uint64_t resends_ = 0;
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
};

}  // namespace graybox::wrapper
