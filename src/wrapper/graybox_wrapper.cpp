#include "wrapper/graybox_wrapper.hpp"

namespace graybox::wrapper {

GrayboxWrapper::GrayboxWrapper(sim::Scheduler& sched, net::Network& net,
                               me::TmeProcess& process, WrapperConfig config)
    : net_(net),
      process_(process),
      config_(config),
      timer_(sched, config.resend_period, [this] { evaluate(); }) {}

void GrayboxWrapper::evaluate() {
  // Guard: h.j. Internal consistency is Lspec's obligation (the paper shows
  // no level-1 wrapper is needed), so W only repairs *mutual* consistency,
  // and only while this process is actually competing for the CS.
  if (!process_.hungry()) return;

  const ProcessId j = process_.pid();
  const clk::Timestamp req = process_.req();
  bool corrected = false;
  for (ProcessId k = 0; k < process_.peers(); ++k) {
    if (k == j) continue;
    // Refinement (Section 4): k's view of us only needs correction when
    // our view of k does not already justify entry — "j.REQk lt REQj".
    // For k in the complement, either h.k holds and Wk fixes the pair, or
    // ~h.k and the pair needs no fix.
    if (!config_.unrefined_send_all && process_.knows_earlier(k)) continue;
    ++resends_;
    if (bus_ != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::kWrapperCorrection;
      e.pid = j;
      e.peer = k;
      if (prov_ != nullptr) e.taint = prov_->process_taint(j);
      bus_->record(e);
    }
    net_.send(j, k, net::MsgType::kRequest, req, /*from_wrapper=*/true);
    corrected = true;
  }
  // Re-arming (timer.j := delta.j) is handled by PeriodicTimer.

  // The resends above re-established mutual consistency with every stale
  // peer, so whatever fault taint j carried is contained here: the
  // corrections (recorded tainted, above) are the last trace of it.
  if (corrected && prov_ != nullptr) prov_->clear_process(j);
}

}  // namespace graybox::wrapper
