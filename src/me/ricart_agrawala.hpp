// Ricart-Agrawala mutual exclusion (paper Section 5.1), written to
// *everywhere* implement Lspec: every handler is a total function of the
// message and of whatever (possibly corrupted) local state it finds.
//
// Whitebox variables beyond the TmeProcess base:
//   view_[k]      - j.REQk, j's latest information about k's request;
//   received_[k]  - "received(j.REQk)": a request from k is pending and has
//                   not been replied to yet.
// The paper's deferred_set.j is derived, exactly as its "always section"
// defines it:  { k : received(j.REQk) /\ REQj lt j.REQk }.
//
// Protocol notes that matter for stabilization (see DESIGN.md):
//   * Replies carry the replier's *current REQ* (the paper's send-reply(j,
//     REQj, k) / send-reply(j, lc.j, k) at release), which keeps receiver
//     views from overshooting the sender's actual request (invariant I).
//   * View updates are direct assignments, so a corrupted view heals on the
//     next genuine message from that peer. A monotone max() update would
//     never heal a corrupted-high view and breaks stabilization — that
//     failure mode is demonstrated by bench_ablations (A1) using the
//     monotone_views option below.
#pragma once

#include <vector>

#include "me/tme_process.hpp"

namespace graybox::me {

struct RicartAgrawalaOptions {
  /// Ablation A1: update views with max(old, new) instead of assignment.
  /// Fault-free behaviour is identical; recovery from corrupted-high views
  /// is lost. Keep false except in the ablation bench.
  bool monotone_views = false;
};

class RicartAgrawala : public TmeProcess {
 public:
  RicartAgrawala(ProcessId pid, net::Network& net,
                 RicartAgrawalaOptions options = {});

  bool knows_earlier(ProcessId k) const override;
  clk::Timestamp view_of(ProcessId k) const override;

  /// "received(j.REQk)" — exposed for tests and diagnostics.
  bool received_pending(ProcessId k) const;

  /// deferred_set.j membership (derived, per the paper's always-section).
  bool deferred(ProcessId k) const;

  // Surgical fault surface (see TmeProcess::fault_set_state).
  void fault_set_view(ProcessId k, clk::Timestamp ts);
  void fault_set_received(ProcessId k, bool value);

 protected:
  void do_request() override;
  void do_release(clk::Timestamp new_req) override;
  void handle(const net::Message& msg) override;
  void do_corrupt(Rng& rng) override;

  /// FragileMe hooks into request handling; see fragile.hpp.
  virtual void handle_request(const net::Message& msg);

  void update_view(ProcessId k, clk::Timestamp ts);

  /// Program-path mutation of received(j.REQk), for subclasses that take
  /// over request handling (CarvalhoRoucairol answers pending requests at
  /// release for *all* pending peers, not only the deferred set).
  void set_received(ProcessId k, bool value);

 private:
  void handle_reply(const net::Message& msg);

  RicartAgrawalaOptions options_;
  std::vector<clk::Timestamp> view_;
  std::vector<char> received_;
};

}  // namespace graybox::me
