// Carvalho-Roucairol mutual exclusion: the classic Ricart-Agrawala
// optimization (Carvalho & Roucairol, CACM 1983) in which a process that
// re-enters the CS does not re-request permission from peers that have not
// asked for the CS since — permission, once granted by a REPLY, is
// *retained* until surrendered by sending a REPLY back.
//
// Whitebox variables beyond RicartAgrawala's view/received:
//   auth_[k]   - j holds k's permission (granted by k's last REPLY, lost
//                when j replies to k);
//   uses_[k]   - CS entries charged against that permission since grant;
//   relied_[k] - j's *current* request is covered by the retained
//                permission (no REQUEST was sent to k for it).
//
// Everywhere-modification (the CR analogue of the paper's Section 5
// modifications to RA and Lamport): a retained permission is LEASED —
// after `lease` uses the process re-requests as plain RA would. A fault
// can plant the same permission on both sides of a pair (both processes
// skip the handshake and collide in the CS), and nothing in bare CR ever
// invalidates the duplicate: the protocol's silence is indistinguishable
// from consent. The lease bounds how long a corrupt permission survives —
// at most `lease` request cycles — after which the REQUEST/REPLY handshake
// re-establishes single ownership. Fault-free behaviour keeps CR's traffic
// saving (2(n-1) messages only on contended entries); the lease merely
// inserts one RA-shaped refresh every `lease` consecutive entries.
//
// Graybox payoff (the reason this file exists): CR's entry guard is NOT
// backed by a view of the peer's current request — knows_earlier(k) is
// true whenever the retained permission covers the request, regardless of
// timestamps. It is therefore a genuinely different everywhere-
// implementation of Lspec, and SpecConformance::view_entry_truth is false:
// Invariant I's per-view truth does not apply, and the harness monitors
// pairwise mutual-belief consistency instead (see lspec/tme_monitors.hpp).
// The byte-for-byte unchanged GrayboxWrapper stabilizes it (Corollary 11
// extended empirically; tests/test_carvalho_roucairol.cpp).
#pragma once

#include <vector>

#include "me/ricart_agrawala.hpp"

namespace graybox::me {

struct CarvalhoRoucairolOptions {
  /// CS entries a retained permission covers before it is re-requested
  /// (the everywhere-modification above). Must be >= 1.
  std::uint32_t lease = 8;
};

class CarvalhoRoucairol : public RicartAgrawala {
 public:
  CarvalhoRoucairol(ProcessId pid, net::Network& net,
                    CarvalhoRoucairolOptions options = {});

  bool knows_earlier(ProcessId k) const override;

  /// j holds k's permission (diagnostics and tests).
  bool authorized(ProcessId k) const;
  /// Entries charged against the retained permission since its grant.
  std::uint32_t uses(ProcessId k) const;
  /// The current request relies on the retained permission from k.
  bool relied(ProcessId k) const;
  std::uint32_t lease() const { return options_.lease; }

  // Surgical fault surface (see TmeProcess::fault_set_state).
  void fault_set_authorized(ProcessId k, bool value);
  void fault_set_uses(ProcessId k, std::uint32_t value);
  void fault_set_relied(ProcessId k, bool value);

 protected:
  void do_request() override;
  void do_release(clk::Timestamp new_req) override;
  void handle(const net::Message& msg) override;
  void handle_request(const net::Message& msg) override;
  void do_corrupt(Rng& rng) override;

 private:
  CarvalhoRoucairolOptions options_;
  std::vector<char> auth_;
  std::vector<std::uint32_t> uses_;
  std::vector<char> relied_;
};

}  // namespace graybox::me
