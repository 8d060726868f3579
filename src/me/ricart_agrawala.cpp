#include "me/ricart_agrawala.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::me {

RicartAgrawala::RicartAgrawala(ProcessId pid, net::Network& net,
                               RicartAgrawalaOptions options)
    : TmeProcess(pid, net), options_(options), received_(net.size(), 0) {
  // Init: j.REQk = 0 for all k, received(j.REQk) = false.
  view_.resize(net.size());
  for (ProcessId k = 0; k < net.size(); ++k)
    view_[k] = clk::Timestamp{0, k};
}

bool RicartAgrawala::knows_earlier(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return clk::lt(req(), view_[k]);
}

clk::Timestamp RicartAgrawala::view_of(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return view_[k];
}

bool RicartAgrawala::received_pending(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return received_[k] != 0;
}

bool RicartAgrawala::deferred(ProcessId k) const {
  // deferred_set.j = { k : received(j.REQk) /\ REQj lt j.REQk }.
  return received_pending(k) && clk::lt(req(), view_[k]);
}

void RicartAgrawala::set_received(ProcessId k, bool value) {
  GBX_EXPECTS(k < peers());
  received_[k] = value ? 1 : 0;
}

void RicartAgrawala::update_view(ProcessId k, clk::Timestamp ts) {
  if (options_.monotone_views && !clk::lt(view_[k], ts)) return;
  view_[k] = ts;
}

void RicartAgrawala::do_request() {
  // Request Spec: h.j |-> send(REQj, j, k) for every k != j.
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k != pid()) send(k, net::MsgType::kRequest, req());
  }
}

void RicartAgrawala::do_release(clk::Timestamp new_req) {
  // Release CS: reply to everyone deferred while we held our request. The
  // reply carries the post-release REQ (== new clock value), so receivers'
  // views match our new REQ exactly.
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k == pid()) continue;
    if (deferred(k)) {
      send(k, net::MsgType::kReply, new_req);
      received_[k] = 0;
    }
  }
}

void RicartAgrawala::handle_request(const net::Message& msg) {
  const ProcessId k = msg.from;
  // receive-request: record k's request, then reply now unless deferring.
  update_view(k, msg.ts);
  received_[k] = 1;
  // Defer exactly when we are competing (hungry or eating) with an earlier
  // request of our own; the derived deferred_set captures this, because
  // while thinking our REQ tracks the clock, which has just witnessed
  // msg.ts and is therefore above it.
  if (!deferred(k)) {
    send(k, net::MsgType::kReply, req());
    received_[k] = 0;
  }
}

void RicartAgrawala::handle_reply(const net::Message& msg) {
  // receive-reply: the reply carries the sender's current REQ; recording it
  // (direct assignment) establishes REQj lt j.REQk when the reply answers
  // our outstanding request, and heals corrupted views otherwise.
  update_view(msg.from, msg.ts);
}

void RicartAgrawala::handle(const net::Message& msg) {
  if (msg.from >= peers() || msg.from == pid()) return;  // corrupt origin
  switch (msg.type) {
    case net::MsgType::kRequest:
      handle_request(msg);
      break;
    case net::MsgType::kReply:
      handle_reply(msg);
      break;
    case net::MsgType::kRelease:
      // Ricart-Agrawala has no releases; one can only arrive through fault
      // injection. Ignoring it keeps the handler total.
      break;
  }
}

void RicartAgrawala::do_corrupt(Rng& rng) {
  corrupt_base(rng);
  for (ProcessId k = 0; k < peers(); ++k) {
    if (rng.chance(0.5)) view_[k] = clk::random_timestamp(rng, peers());
    if (rng.chance(0.5)) received_[k] = rng.chance(0.5) ? 1 : 0;
  }
}

void RicartAgrawala::fault_set_view(ProcessId k, clk::Timestamp ts) {
  GBX_EXPECTS(k < peers());
  view_[k] = ts;
  mark_observably_changed();
}

void RicartAgrawala::fault_set_received(ProcessId k, bool value) {
  GBX_EXPECTS(k < peers());
  received_[k] = value ? 1 : 0;
  mark_observably_changed();
}

}  // namespace graybox::me
