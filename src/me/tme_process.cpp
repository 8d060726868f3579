#include "me/tme_process.hpp"

#include "common/contracts.hpp"

namespace graybox::me {

TmeProcess::TmeProcess(ProcessId pid, net::Network& net)
    : pid_(pid), net_(net), lc_(pid) {
  GBX_EXPECTS(pid < net.size());
  // Init (Section 3.2): t.j, REQj = 0, ts.j = 0.
  req_ = clk::Timestamp{0, pid};
}

void TmeProcess::transition(TmeState to) {
  const TmeState from = state_;
  state_ = to;
  if (bus_ != nullptr) {
    obs::Event e;
    e.kind = to == TmeState::kEating     ? obs::EventKind::kCsEnter
             : from == TmeState::kEating ? obs::EventKind::kCsExit
                                         : obs::EventKind::kLocalStep;
    e.pid = pid_;
    e.a = static_cast<std::uint8_t>(from);
    e.b = static_cast<std::uint8_t>(to);
    if (prov_ != nullptr) e.taint = prov_->process_taint(pid_);
    bus_->record(e);
  }
  for (const auto& obs : state_observers_) obs(from, to);
}

void TmeProcess::refresh_thinking_req() {
  // CS Release Spec: "when t.j holds, REQj is always set to the timestamp
  // of the most current event in j".
  if (state_ == TmeState::kThinking) req_ = lc_.now();
}

void TmeProcess::maybe_enter() {
  // CS Entry Spec: h.j /\ (forall k != j : REQj lt j.REQk)  |->  e.j.
  if (state_ != TmeState::kHungry) return;
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k == pid_) continue;
    if (!knows_earlier(k)) return;
  }
  ++cs_entries_;
  transition(TmeState::kEating);
}

void TmeProcess::after_event() {
  refresh_thinking_req();
  maybe_enter();
  // Every program event ends here, so one touch covers request/release/
  // poll/on_message for the snapshot source.
  mark_observably_changed();
}

void TmeProcess::request_cs() {
  if (state_ == TmeState::kThinking) {
    net_.local_event(pid_);  // monitor-side causality for the FCFS check
    lc_.tick();
    req_ = lc_.now();  // Request Spec: REQj is fixed for the whole request
    transition(TmeState::kHungry);
    do_request();
  }
  after_event();
}

void TmeProcess::release_cs() {
  if (state_ == TmeState::kEating) {
    net_.local_event(pid_);
    // The post-release REQ is the fresh clock value; do_release sends it in
    // replies/releases so receivers' views equal the new REQ (invariant I).
    const clk::Timestamp new_req = lc_.tick();
    do_release(new_req);
    transition(TmeState::kThinking);
    req_ = new_req;
  }
  after_event();
}

void TmeProcess::poll() { after_event(); }

void TmeProcess::on_message(const net::Message& msg) {
  // A tainted message contaminates the receiver before the handler runs:
  // whatever the handler does with the contents is downstream of the fault.
  if (prov_ != nullptr && !msg.taint.empty()) {
    prov_->merge_process(pid_, msg.taint);
  }
  // Timestamp Spec: logical clocks witness every received timestamp, which
  // is what lets corrupted sky-high timestamps propagate and be absorbed
  // instead of stalling the total order.
  lc_.witness(msg.ts);
  refresh_thinking_req();
  handle(msg);
  after_event();
}

void TmeProcess::send(ProcessId to, net::MsgType type, clk::Timestamp ts) {
  net_.send(pid_, to, type, ts, /*from_wrapper=*/false);
}

void TmeProcess::corrupt_base(Rng& rng) {
  state_ = static_cast<TmeState>(rng.uniform(0, 2));
  req_ = clk::random_timestamp(rng, peers());
  lc_.corrupt(rng.next() >> rng.uniform(0, 63));
}

}  // namespace graybox::me
