#include "mc/mutants.hpp"

#include <memory>

#include "common/contracts.hpp"
#include "me/lamport.hpp"
#include "me/protocol_registry.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::mc {

namespace {

using me::Protocol;
using me::ResolvedOptions;
using me::RicartAgrawala;
using me::TmeProcess;

// --- mutant-ra-tiebreak ------------------------------------------------------

/// Drops the pid tiebreak from the entry guard: counters alone decide, and
/// ties pass. Two processes whose concurrent requests carry equal Lamport
/// counters each believe they precede the other and both enter.
class RaTiebreakMutant : public RicartAgrawala {
 public:
  using RicartAgrawala::RicartAgrawala;

  bool knows_earlier(ProcessId k) const override {
    GBX_EXPECTS(k < peers());
    return req().counter <= view_of(k).counter;
  }
};

// --- mutant-ra-eager-reply ---------------------------------------------------

/// Always replies immediately and never records the request as pending, so
/// the derived deferred set stays empty and do_release notifies nobody.
/// The competing process keeps a stale earlier view of the releaser and
/// starves behind it.
class RaEagerReplyMutant : public RicartAgrawala {
 public:
  using RicartAgrawala::RicartAgrawala;

 protected:
  void handle_request(const net::Message& msg) override {
    update_view(msg.from, msg.ts);
    send(msg.from, net::MsgType::kReply, req());
  }
};

// --- mutant-lamport-no-ack ---------------------------------------------------

/// Drops the acknowledgement conjunct (grant.j.k == REQj lt last_heard[k])
/// from Lamport's entry guard: local queue evidence alone decides. A peer
/// whose earlier request is still in flight has no queue entry yet, so
/// both processes judge themselves earliest and both enter — the textbook
/// reason Lamport's algorithm must wait to hear back from every peer.
class LamportNoAckMutant : public me::LamportMe {
 public:
  using me::LamportMe::LamportMe;

  bool knows_earlier(ProcessId k) const override {
    GBX_EXPECTS(k < peers());
    for (const auto& entry : queue()) {
      if (entry.pid == k && clk::lt(entry.ts, req())) return false;
    }
    return true;
  }

  /// Lamport's one-pass row read has the grant conjunct built in: the
  /// snapshot must read this mutant's own relation, peer by peer.
  std::size_t fill_knows_row(std::span<char> row) const override {
    return TmeProcess::fill_knows_row(row);
  }
};

/// Every mutant takes its base protocol's constructor and no options.
template <class Mutant>
std::unique_ptr<TmeProcess> make(ProcessId pid, net::Network& net,
                                 const ResolvedOptions& /*options*/) {
  return std::make_unique<Mutant>(pid, net);
}

}  // namespace

void register_mutants() {
  static const bool registered = [] {
    static const Protocol tiebreak{.name = "mutant-ra-tiebreak",
                                   .make = make<RaTiebreakMutant>};
    static const Protocol eager{.name = "mutant-ra-eager-reply",
                                .make = make<RaEagerReplyMutant>};
    static const Protocol noack{.name = "mutant-lamport-no-ack",
                                .make = make<LamportNoAckMutant>};
    for (const Protocol* p : {&tiebreak, &eager, &noack})
      me::ProtocolRegistry::instance().add(p);
    return true;
  }();
  (void)registered;
}

}  // namespace graybox::mc
