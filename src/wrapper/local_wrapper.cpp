#include "wrapper/local_wrapper.hpp"

namespace graybox::wrapper {

LocalWrapper::LocalWrapper(sim::Scheduler& sched, me::TmeProcess& process,
                           LocalWrapperConfig config)
    : process_(process),
      config_(config),
      timer_(sched, config.check_period, [this] { evaluate(); }) {}

void LocalWrapper::evaluate() {
  const clk::Timestamp now = process_.clock().now();
  if (process_.thinking()) {
    // P1 (Release Spec): t.j => REQj = ts.j.
    if (process_.req() != now) {
      process_.fault_set_req(now);
      correct(obs::LocalPredicate::kReqTracksClock);
    }
    return;
  }
  // Competing (hungry or eating): the request must be one this process
  // issued — its own pid, already witnessed by its own clock. A request
  // failing either test cannot be re-derived locally (the genuine value is
  // gone), so the consistent state restored is "not requesting": reset to
  // thinking with REQ glued to the clock, and let the client re-request.
  if (process_.req().pid != process_.pid()) {
    process_.fault_set_state(me::TmeState::kThinking);
    process_.fault_set_req(now);
    correct(obs::LocalPredicate::kForeignReq);
    return;
  }
  // P3: a genuine request is a tick of the own clock, so ts.j is at or
  // above REQj ever after.
  if (clk::lt(now, process_.req())) {
    process_.fault_set_state(me::TmeState::kThinking);
    process_.fault_set_req(now);
    correct(obs::LocalPredicate::kReqAboveClock);
  }
}

void LocalWrapper::correct(obs::LocalPredicate which) {
  ++corrections_;
  if (bus_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kLocalCorrection;
    e.pid = process_.pid();
    e.a = static_cast<std::uint8_t>(which);
    if (prov_ != nullptr) e.taint = prov_->process_taint(process_.pid());
    bus_->record(e);
  }
  // The repair restored local consistency, so the corruption this process
  // carried is contained here (the correction event above is attributed).
  if (prov_ != nullptr) prov_->clear_process(process_.pid());
}

}  // namespace graybox::wrapper
