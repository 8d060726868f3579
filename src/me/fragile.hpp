// FragileMe: a deliberately NON-everywhere implementation of Lspec, used as
// the negative control for the graybox guarantee.
//
// It is Ricart-Agrawala with one "optimization": a request from k is ignored
// when received(j.REQk) is already set ("we already know about k's
// request"). In fault-free executions the flag is never set when a fresh
// request arrives, so FragileMe implements Lspec *from its initial states*
// — [FragileMe => Lspec]init holds and it passes every fault-free test.
//
// But Reply Spec is violated from states where the flag is corrupted to
// true: the wrapper's resent REQUEST is ignored, no reply ever comes, and
// the requester waits forever. Theorem 8's premise ("M *everywhere*
// implements Lspec") fails, and so does its conclusion: the same wrapper W
// that stabilizes RicartAgrawala and LamportMe does not stabilize FragileMe.
// This is exactly Figure 1's lesson transposed to the case study, and
// tests/test_fragile.cpp plus bench_reusability demonstrate it.
#pragma once

#include "me/ricart_agrawala.hpp"

namespace graybox::me {

class FragileMe : public RicartAgrawala {
 public:
  FragileMe(ProcessId pid, net::Network& net) : RicartAgrawala(pid, net) {}

 protected:
  void handle_request(const net::Message& msg) override {
    // The fatal shortcut: deduplicate requests on the received flag. The
    // flag is implementation state the specification knows nothing about,
    // and faults can set it; silence then becomes permanent.
    if (received_pending(msg.from)) return;
    RicartAgrawala::handle_request(msg);
  }
};

}  // namespace graybox::me
