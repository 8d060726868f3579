// Periodic timer built on the Scheduler.
//
// The refined wrapper W' (Section 4, "Implementation of W") replaces W's
// continuous guard evaluation with a timeout: the wrapper action runs only
// when timer.j expires, and the timer is then re-armed with period delta.j.
// PeriodicTimer is that mechanism. A period of 0 is normalized to 1 tick —
// the highest rate a discrete-event simulation admits — which is the
// executable reading of the paper's "W' is equivalent to W when delta = 0".
#pragma once

#include <functional>

#include "sim/scheduler.hpp"

namespace graybox::sim {

class PeriodicTimer {
 public:
  using TickFn = std::function<void()>;

  /// Creates a stopped timer. `fn` runs once per period while started.
  PeriodicTimer(Scheduler& sched, SimTime period, TickFn fn);
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arm the timer; the first tick fires one period from now. No-op if
  /// already running.
  void start();

  /// Disarm; pending tick is cancelled. No-op if stopped.
  void stop();

  bool running() const { return running_; }
  SimTime period() const { return period_; }

  /// Number of times the tick function has fired.
  std::uint64_t fired() const { return fired_; }

 private:
  void arm();
  void on_tick();

  Scheduler& sched_;
  SimTime period_;
  TickFn fn_;
  EventId pending_ = 0;
  bool running_ = false;
  std::uint64_t fired_ = 0;
};

}  // namespace graybox::sim
