// Graybox means: wrap what you cannot read.
//
//   $ ./closed_source_wrapping
//
// The paper's opening concern is that classical stabilization needs the
// implementation's source ("whitebox"), which is unavailable for
// closed-source components. This example plays that story out: a
// "vendor" hands us two black boxes behind the TmeProcess interface — we
// pretend not to know whether each is Ricart-Agrawala or Lamport — and the
// SAME wrapper object, which can only touch the Lspec observables (state,
// REQ, knows_earlier), stabilizes both after identical fault bursts.
#include <iostream>
#include <memory>
#include <string_view>

#include "common/rng.hpp"
#include "me/client.hpp"
#include "me/protocol_registry.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "wrapper/graybox_wrapper.hpp"

namespace {

using namespace graybox;

// The "vendor": builds implementations of the specification-level
// interface from a registry name. Callers get no concrete type — exactly
// the graybox setting.
constexpr std::string_view kVendorBoxes[] = {"ricart-agrawala", "lamport"};

bool run_vendor_system(int vendor) {
  sim::Scheduler sched;
  net::Network net(sched, 3, net::DelayModel::uniform(1, 4), Rng(11));
  const me::ResolvedProtocol box =
      me::ProtocolRegistry::instance().resolve(kVendorBoxes[vendor]);

  std::vector<std::unique_ptr<me::TmeProcess>> procs;
  std::vector<std::unique_ptr<me::Client>> clients;
  std::vector<std::unique_ptr<wrapper::GrayboxWrapper>> wrappers;
  Rng rng(99);
  for (ProcessId pid = 0; pid < 3; ++pid) {
    procs.push_back(box.make(pid, net));
    me::TmeProcess* p = procs.back().get();
    net.set_handler(pid, [p](const net::Message& m) { p->on_message(m); });
    me::ClientConfig client_config;
    client_config.think_mean = 30;
    client_config.eat_mean = 6;
    clients.push_back(
        std::make_unique<me::Client>(sched, *p, client_config, rng.split()));
    clients.back()->start();
    // The wrapper sees only the TmeProcess interface: this line compiles
    // for ANY implementation of Lspec, which is the whole point.
    wrappers.push_back(std::make_unique<wrapper::GrayboxWrapper>(
        sched, net, *p, wrapper::WrapperConfig{.resend_period = 15}));
    wrappers.back()->start();
  }

  net::FaultInjector faults(sched, net, Rng(44),
                            [&](ProcessId pid, Rng& r) {
                              procs[pid]->corrupt_state(r);
                            });

  sched.run_until(1000);
  faults.burst(10, net::FaultMix::all());
  sched.run_until(12000);
  for (auto& c : clients) c->stop_requesting();
  sched.run_until(18000);

  std::uint64_t entries = 0;
  bool all_thinking = true;
  for (const auto& p : procs) {
    entries += p->cs_entries();
    all_thinking = all_thinking && p->thinking();
  }
  std::cout << "  vendor box #" << vendor << " (claims to satisfy Lspec; "
            << "actually " << box.protocol->name << "): " << entries
            << " CS entries, " << faults.total_injected() << " faults, "
            << net.sent_by_wrapper() << " wrapper resends, final state "
            << (all_thinking ? "quiescent" : "STUCK") << "\n";
  return all_thinking && entries > 0;
}

}  // namespace

int main() {
  std::cout << "Wrapping closed-source components with one graybox "
               "wrapper:\n\n";
  const bool ok0 = run_vendor_system(0);
  const bool ok1 = run_vendor_system(1);
  std::cout << "\nThe wrapper never saw either implementation's internals — "
               "it is written against Lspec's observables alone — yet both "
               "black boxes recover from the same adversary. That is "
               "Corollary 11: reusability at the specification level.\n";
  return ok0 && ok1 ? 0 : 1;
}
