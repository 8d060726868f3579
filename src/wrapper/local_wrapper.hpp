// The level-1 (intra-process consistency) wrapper for TME.
//
// Section 2.2 of the paper splits stabilization wrappers into two tiers:
// level-1 restores *local* consistency — each process's own state satisfies
// the always-section of its local spec — and level-2 (GrayboxWrapper, the
// paper's W') restores *mutual* consistency between processes. For TME the
// paper proves the programs' own handlers already restore local consistency
// (every handler is total), so no level-1 wrapper is *required* — but one
// is still *derivable* from Lspec, and deploying it shortens the window in
// which a corrupted process acts on locally-inconsistent state instead of
// waiting for the next program event to overwrite it.
//
// The wrapper checks exactly the intra-process clauses of Lspec that are
// state predicates (no quantification over peers):
//
//   P1 (Release Spec)  t.j  =>  REQj = ts.j
//   P2 (ownership)     ~t.j =>  REQj.pid = j      (REQj was issued by j)
//   P3 (Timestamp)     ~t.j =>  ~(ts.j lt REQj)   (j's clock has witnessed
//                                                  its own request)
//
// and on violation restores the nearest locally-consistent state: P1 glues
// REQ back to the clock; P2/P3 mean the recorded request cannot be one this
// process issued, so the request is abandoned (reset to thinking, REQ glued
// to the clock) and the client re-requests on its next poll. All three are
// provably silent in fault-free runs: while thinking the base class glues
// REQ to the clock after every event, and a genuine request is a fresh
// tick of the process's own clock.
//
// Grayboxness is the same as GrayboxWrapper's: the corrector reads and
// writes only the TmeProcess graybox surface (state/req/clock and the
// fault-jump setters), so one wrapper object serves every implementation.
// It is composable with level-2 — the harness can run either tier or both
// per process (HarnessConfig::per_process_tiers).
#pragma once

#include "me/tme_process.hpp"
#include "obs/event_bus.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace graybox::wrapper {

struct LocalWrapperConfig {
  /// Timeout between consistency checks (the level-1 analogue of W' delta).
  /// 0 = check at the maximal rate the simulation admits (one tick).
  SimTime check_period = 25;
};

class LocalWrapper {
 public:
  /// Wraps `process`. Starts disarmed; call start().
  LocalWrapper(sim::Scheduler& sched, me::TmeProcess& process,
               LocalWrapperConfig config = {});

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }
  bool running() const { return timer_.running(); }

  SimTime check_period() const { return config_.check_period; }

  /// Number of local state repairs applied.
  std::uint64_t corrections() const { return corrections_; }
  /// Number of timer expirations (consistency-check evaluations).
  std::uint64_t checks() const { return timer_.fired(); }

  /// One level-1 action: check P1-P3 and repair. Exposed for tests;
  /// normally driven by the internal timer.
  void evaluate();

  /// Attach the observability bus; every repair is recorded as a
  /// kLocalCorrection event with the obs::LocalPredicate in Event::a.
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Attach the provenance tracker; a repair then clears the process's
  /// taint (local consistency is restored, the corruption is contained).
  /// The kLocalCorrection event itself still carries the taint.
  void set_provenance(obs::ProvenanceTracker* prov) { prov_ = prov; }

 private:
  void correct(obs::LocalPredicate which);

  me::TmeProcess& process_;
  LocalWrapperConfig config_;
  sim::PeriodicTimer timer_;
  std::uint64_t corrections_ = 0;
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
};

}  // namespace graybox::wrapper
