// The paper's Section 4 deadlock, narrated step by step.
//
//   $ ./deadlock_recovery [--wrapped=true] [--delta=10]
//
// Two processes request the critical section; both request messages are
// lost. Each waits for the other's reply forever — "the state of M has a
// deadlock". Run with --wrapped=false to watch the bare protocol hang;
// with the wrapper (default) the W' resends repair the mutual
// inconsistency and both processes are served.
//
// The system here is hand-wired (no SystemHarness): a network, two
// processes, their wrappers and a fault injector.
#include <iostream>

#include "common/flags.hpp"
#include "me/ricart_agrawala.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "wrapper/graybox_wrapper.hpp"

int main(int argc, char** argv) {
  using namespace graybox;

  Flags flags(argc, argv,
              {{"wrapped", "attach wrappers (default true)"},
               {"delta", "wrapper timeout (default 10)"}});
  const bool wrapped = flags.get_bool("wrapped", true);
  const auto delta = static_cast<SimTime>(flags.get_int("delta", 10));

  sim::Scheduler sched;
  net::Network net(sched, 2, net::DelayModel::fixed(1), Rng(3));
  me::RicartAgrawala j(0, net), k(1, net);
  net.set_handler(0, [&](const net::Message& m) { j.on_message(m); });
  net.set_handler(1, [&](const net::Message& m) { k.on_message(m); });

  // Log every state transition so the narrative is visible.
  auto log_transitions = [&](me::TmeProcess& p, const char* name) {
    p.add_state_observer([&, name](me::TmeState from, me::TmeState to) {
      std::cout << "  [t=" << sched.now() << "] " << name << ": "
                << me::to_string(from) << " -> " << me::to_string(to)
                << "\n";
    });
  };
  log_transitions(j, "j");
  log_transitions(k, "k");

  std::unique_ptr<wrapper::GrayboxWrapper> wj, wk;
  if (wrapped) {
    wj = std::make_unique<wrapper::GrayboxWrapper>(
        sched, net, j, wrapper::WrapperConfig{.resend_period = delta});
    wk = std::make_unique<wrapper::GrayboxWrapper>(
        sched, net, k, wrapper::WrapperConfig{.resend_period = delta});
    wj->start();
    wk->start();
  }

  std::cout << "Section 4 scenario (" << (wrapped ? "wrapped" : "BARE")
            << "):\n";
  std::cout << "  both processes request the CS...\n";
  j.request_cs();
  k.request_cs();

  std::cout << "  ...and both request messages are dropped from the "
               "channels.\n";
  // Two channel-clear faults through the injector (so the burst is on the
  // record): the first clear hits one of the two nonempty channels, the
  // second hits the only one left — together they empty both.
  net::FaultInjector injector(sched, net, Rng(7), nullptr);
  injector.inject(net::FaultKind::kChannelClear);
  injector.inject(net::FaultKind::kChannelClear);

  std::cout << "  now j.REQk lt REQj and k.REQj lt REQk: neither can "
               "enter.\n\n";

  for (int phase = 0; phase < 6; ++phase) {
    sched.run_for(100);
    // Clients would do this; we emulate the release obligation inline.
    if (j.eating()) j.release_cs();
    if (k.eating()) k.release_cs();
  }

  std::cout << "\nafter 600 ticks: j=" << me::to_string(j.state())
            << " k=" << me::to_string(k.state()) << ", CS entries j="
            << j.cs_entries() << " k=" << k.cs_entries() << "\n";
  if (wrapped) {
    std::cout << "wrapper resends: " << net.sent_by_wrapper()
              << " — the graybox repair of the paper's deadlock.\n";
  } else {
    std::cout << "no recovery mechanism: this deadlock persists forever "
                 "(rerun with --wrapped=true).\n";
  }

  const bool served = j.cs_entries() + k.cs_entries() >= 2;
  return wrapped == served ? 0 : 1;
}
