#include "me/carvalho_roucairol.hpp"

#include "common/contracts.hpp"

namespace graybox::me {

CarvalhoRoucairol::CarvalhoRoucairol(ProcessId pid, net::Network& net,
                                     CarvalhoRoucairolOptions options)
    : RicartAgrawala(pid, net),
      options_(options),
      auth_(net.size(), 0),
      uses_(net.size(), 0),
      relied_(net.size(), 0) {
  GBX_EXPECTS(options_.lease >= 1);
}

bool CarvalhoRoucairol::knows_earlier(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  // The retained permission covers the current request: k consented to our
  // entry and has not asked for the CS since. This is the clause that makes
  // CR's entry guard permission-backed rather than view-backed (and why its
  // registry record's SpecConformance opts out of Invariant I's per-view
  // truth).
  if (!thinking() && relied_[k] != 0) return true;
  return RicartAgrawala::knows_earlier(k);
}

bool CarvalhoRoucairol::authorized(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return auth_[k] != 0;
}

std::uint32_t CarvalhoRoucairol::uses(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return uses_[k];
}

bool CarvalhoRoucairol::relied(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return relied_[k] != 0;
}

void CarvalhoRoucairol::do_request() {
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k == pid()) continue;
    if (auth_[k] != 0 && uses_[k] < options_.lease) {
      // CR's optimization: permission retained from k's last REPLY still
      // covers us — charge the lease, skip the REQUEST.
      relied_[k] = 1;
      ++uses_[k];
      continue;
    }
    // No usable permission (never granted, surrendered, or lease spent):
    // plain Ricart-Agrawala handshake.
    auth_[k] = 0;
    uses_[k] = 0;
    relied_[k] = 0;
    send(k, net::MsgType::kRequest, req());
  }
}

void CarvalhoRoucairol::do_release(clk::Timestamp new_req) {
  // Answer every pending request — not only the deferred set, as base RA
  // does. A REPLY both unblocks the requester and transfers the pairwise
  // permission; answering all of received_pending keeps permissions
  // single-owner from any reached state (a corrupt received flag would
  // otherwise pin a permission on both sides forever).
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k == pid()) continue;
    relied_[k] = 0;
    if (received_pending(k)) {
      set_received(k, false);
      auth_[k] = 0;
      uses_[k] = 0;
      send(k, net::MsgType::kReply, new_req);
    }
  }
}

void CarvalhoRoucairol::handle_request(const net::Message& msg) {
  const ProcessId k = msg.from;
  update_view(k, msg.ts);
  set_received(k, true);
  // Defer while using the CS or while our own request is earlier; the
  // permission stays with us and the REPLY waits for do_release.
  if (eating() || deferred(k)) return;
  // Surrender the permission: reply now, and the pair's token moves to k.
  set_received(k, false);
  const bool was_relying = hungry() && relied_[k] != 0;
  auth_[k] = 0;
  uses_[k] = 0;
  relied_[k] = 0;
  send(k, net::MsgType::kReply, req());
  // CR's re-request rule: if our outstanding request was counting on the
  // permission we just surrendered, it is no longer covered — chase it
  // with the REQUEST we had optimized away.
  if (was_relying) send(k, net::MsgType::kRequest, req());
}

void CarvalhoRoucairol::handle(const net::Message& msg) {
  RicartAgrawala::handle(msg);
  if (msg.from >= peers() || msg.from == pid()) return;  // corrupt origin
  if (msg.type == net::MsgType::kReply && hungry() &&
      clk::lt(req(), msg.ts)) {
    // A REPLY is a grant of k's permission (the lease restarts) — but only
    // when it can be answering the outstanding request, i.e. its timestamp
    // witnessed our REQ. Without the guard, a duplicate answer to an
    // already-answered request (the wrapper's resends draw these) arrives
    // after the pair's token has legitimately moved back to k and mints a
    // second permission: both sides hold, both enter. Base RA is immune
    // because its replies are idempotent view refreshes; a permission is
    // not, so acceptance must be matched to the request round. Stale
    // replies still flow through handle_reply above as view refreshes.
    auth_[msg.from] = 1;
    uses_[msg.from] = 0;
  }
}

void CarvalhoRoucairol::do_corrupt(Rng& rng) {
  RicartAgrawala::do_corrupt(rng);
  for (ProcessId k = 0; k < peers(); ++k) {
    if (rng.chance(0.5)) auth_[k] = rng.chance(0.5) ? 1 : 0;
    if (rng.chance(0.5))
      uses_[k] = static_cast<std::uint32_t>(rng.uniform(0, 2 * options_.lease));
    if (rng.chance(0.5)) relied_[k] = rng.chance(0.5) ? 1 : 0;
  }
}

void CarvalhoRoucairol::fault_set_authorized(ProcessId k, bool value) {
  GBX_EXPECTS(k < peers());
  auth_[k] = value ? 1 : 0;
  mark_observably_changed();
}

void CarvalhoRoucairol::fault_set_uses(ProcessId k, std::uint32_t value) {
  GBX_EXPECTS(k < peers());
  uses_[k] = value;
  mark_observably_changed();
}

void CarvalhoRoucairol::fault_set_relied(ProcessId k, bool value) {
  GBX_EXPECTS(k < peers());
  relied_[k] = value ? 1 : 0;
  mark_observably_changed();
}

}  // namespace graybox::me
