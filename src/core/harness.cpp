#include "core/harness.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/contracts.hpp"
#include "core/stabilization.hpp"

namespace graybox::core {

namespace {

/// The safety monitors: ME1, ME3, Invariant I and Mutual Belief (null when
/// not installed). ME2's records are liveness verdicts, read as starvation.
std::array<const lspec::TmeMonitor*, 4> safety_monitors(
    const lspec::TmeMonitors& tm) {
  return {tm.me1, tm.me3, tm.invariant_i, tm.mutual_belief};
}

}  // namespace

std::vector<me::ResolvedProtocol> resolve_algorithm(
    const HarnessConfig& config) {
  const me::ProtocolRegistry& registry = me::ProtocolRegistry::instance();
  std::string_view rest = config.algorithm;
  const std::size_t count =
      static_cast<std::size_t>(std::count(rest.begin(), rest.end(), '+')) + 1;
  // Anything but one spec per process or one for all is a misconfiguration
  // that must fail fast, never silently reuse a spec for unnamed processes.
  GBX_EXPECTS(count == 1 || count == config.n);
  if (count == 1)
    return std::vector<me::ResolvedProtocol>(config.n, registry.resolve(rest));
  // '+' is unambiguous: ProtocolRegistry::add rejects it in every name,
  // alias and key, and no option kind reads it.
  std::vector<me::ResolvedProtocol> protocols;
  protocols.reserve(config.n);
  for (ProcessId pid = 0; pid < config.n; ++pid) {
    const std::size_t plus = std::min(rest.find('+'), rest.size());
    protocols.push_back(registry.resolve(rest.substr(0, plus)));
    rest.remove_prefix(std::min(plus + 1, rest.size()));
  }
  return protocols;
}

std::string algorithm_spec(const HarnessConfig& config) {
  std::vector<std::string> specs;
  specs.reserve(config.n);
  for (const me::ResolvedProtocol& protocol : resolve_algorithm(config))
    specs.push_back(protocol.canonical());
  // A '+'-joined spec whose entries all resolve identically constructs the
  // same system as the uniform spelling — serialize them the same.
  bool uniform = true;
  for (const std::string& s : specs) uniform = uniform && s == specs.front();
  if (uniform) return specs.front();
  std::string out;
  for (const std::string& s : specs) {
    if (!out.empty()) out += "+";
    out += s;
  }
  return out;
}

SystemHarness::SystemHarness(HarnessConfig config) : config_(config) {
  GBX_EXPECTS(config_.n >= 1);
  // A heterogeneous tier vector must name exactly one entry per process;
  // anything else is a misconfiguration that must fail fast here, never
  // silently fall back to the uniform fields.
  GBX_EXPECTS(config_.per_process_tiers.empty() ||
              config_.per_process_tiers.size() == config_.n);

  // Each process's spec, resolved once: it builds the process below and
  // its conformance claims shape the monitoring battery.
  const std::vector<me::ResolvedProtocol> protocols =
      resolve_algorithm(config_);

  // The typed event bus exists unconditionally (capacity 0 = disabled) and
  // every producer stays attached, so toggling trace_capacity changes only
  // how much is retained, never the wiring.
  bus_ = std::make_unique<obs::EventBus>(sched_, config_.trace_capacity);

  // Causal provenance: one tracker per harness when enabled; producers all
  // hold the same nullable pointer (null = disabled, a predicted branch).
  if (config_.provenance) {
    provenance_ = std::make_unique<obs::ProvenanceTracker>(config_.n);
  }

  // Pre-split every RNG stream in a fixed order (network, one per client,
  // injector, fault load, recovery): seed-pinned runs depend on it.
  Rng master(config_.seed);
  Rng net_rng = master.split();
  std::vector<Rng> client_rngs;
  client_rngs.reserve(config_.n);
  for (ProcessId pid = 0; pid < config_.n; ++pid)
    client_rngs.push_back(master.split());
  Rng injector_rng = master.split();
  Rng fault_load_rng = master.split();
  recovery_rng_ = master.split();

  net_ = std::make_unique<net::Network>(sched_, config_.n, config_.delay,
                                        net_rng);
  net_->set_event_bus(bus_.get());
  net_->set_provenance(provenance_.get());

  // Processes + delivery plumbing.
  std::vector<me::TmeProcess*> raw;
  for (ProcessId pid = 0; pid < config_.n; ++pid) {
    processes_.push_back(protocols[pid].make(pid, *net_));
    raw.push_back(processes_.back().get());
    me::TmeProcess* proc = raw.back();
    proc->set_event_bus(bus_.get());
    proc->set_provenance(provenance_.get());
    net_->set_handler(pid,
                      [proc](const net::Message& msg) { proc->on_message(msg); });
  }

  // Clients (one per process, independent RNG streams).
  for (ProcessId pid = 0; pid < config_.n; ++pid) {
    clients_.push_back(std::make_unique<me::Client>(
        sched_, *processes_[pid], config_.client, client_rngs[pid]));
  }

  // Wrappers, per process and per tier: level-2 is the graybox W' of
  // Section 4 (mutual consistency), level-1 the local-consistency tier of
  // Section 2.2. A null entry means the process runs without that tier.
  wrappers_.resize(config_.n);
  local_wrappers_.resize(config_.n);
  for (ProcessId pid = 0; pid < config_.n; ++pid) {
    std::uint8_t tiers = (config_.wrapped ? kTierLevel2 : 0) |
                         (config_.level1 ? kTierLevel1 : 0);
    if (!config_.per_process_tiers.empty())
      tiers = config_.per_process_tiers[pid];
    if (tiers & kTierLevel2) {
      wrappers_[pid] = std::make_unique<wrapper::GrayboxWrapper>(
          sched_, *net_, *processes_[pid], config_.wrapper);
      wrappers_[pid]->set_event_bus(bus_.get());
      wrappers_[pid]->set_provenance(provenance_.get());
    }
    if (tiers & kTierLevel1) {
      local_wrappers_[pid] = std::make_unique<wrapper::LocalWrapper>(
          sched_, *processes_[pid], config_.local_wrapper);
      local_wrappers_[pid]->set_event_bus(bus_.get());
      local_wrappers_[pid]->set_provenance(provenance_.get());
    }
  }

  // Fault injection, with process corruption routed to corrupt_state.
  faults_ = std::make_unique<net::FaultInjector>(
      sched_, *net_, injector_rng,
      [this](ProcessId pid, Rng& rng) {
        processes_[pid]->corrupt_state(rng);
      });
  faults_->set_event_bus(bus_.get());
  faults_->set_provenance(provenance_.get());
  faults_->set_fault_observer([this] { on_fault_arrival(); });
  faults_->set_lifecycle([this](ProcessId pid, bool down) {
    if (down) {
      // A crashed process takes no steps: its client stops polling and its
      // wrappers stop. In-flight messages to it still arrive (and the
      // network swallows them).
      clients_[pid]->stop();
      if (wrappers_[pid]) wrappers_[pid]->stop();
      if (local_wrappers_[pid]) local_wrappers_[pid]->stop();
      return;
    }
    // §3.1: a recovering process is "improperly initialized" — it comes
    // back with arbitrary state, not a clean slate. The wrapper is what
    // must make the system converge afterwards.
    processes_[pid]->corrupt_state(recovery_rng_);
    clients_[pid]->start();
    if (wrappers_[pid]) wrappers_[pid]->start();
    if (local_wrappers_[pid]) local_wrappers_[pid]->start();
  });

  // Sustained fault load.
  fault_load_ = std::make_unique<net::FaultProcess>(
      sched_, *faults_, *net_, config_.fault_process, fault_load_rng);

  // Monitoring battery.
  structural_ = std::make_unique<lspec::StructuralSpecMonitor>(raw, sched_);
  send_mono_ = std::make_unique<lspec::SendMonotonicityMonitor>(*net_, sched_);
  fifo_ = std::make_unique<lspec::FifoMonitor>(*net_, sched_);
  if (config_.install_monitors) {
    snapshots_ = std::make_unique<lspec::SnapshotSource>(raw, *net_);
    // Each process's protocol declares which Lspec reading it claims; the
    // battery adapts (a process opting out of view_entry_truth exempts it
    // from Invariant I and adds the MutualBelief monitor; opting out of
    // fcfs exempts its entries from ME3's overtake check). All-claiming
    // systems get exactly the classic 4-monitor battery.
    std::vector<char> claims(config_.n, 1);
    std::vector<char> fcfs_claims(config_.n, 1);
    for (ProcessId pid = 0; pid < config_.n; ++pid) {
      const me::SpecConformance& conf = protocols[pid].protocol->conformance;
      claims[pid] = conf.view_entry_truth ? 1 : 0;
      fcfs_claims[pid] = conf.fcfs ? 1 : 0;
    }
    tme_handles_ = lspec::install_tme_monitors(
        monitor_set_, config_.n, std::move(claims), std::move(fcfs_claims));
    lspec_begin_ = monitor_set_.size();
    lspec::install_lspec_clause_monitors(monitor_set_);
    // The observation hot path: one snapshot + monitor pass per executed
    // event. The capture re-reads only the touched rows and tells the
    // monitors which process row changed; the reference substrate hands
    // every monitor kDirtyAll, its full check, instead.
    sched_.add_observer([this](SimTime t) {
      const auto start = std::chrono::steady_clock::now();
      const lspec::GlobalSnapshot& cur = snapshots_->capture(t);
      monitor_set_.observe_ref(t, snapshots_->previous(), cur,
                               config_.reference_substrate
                                   ? spec::kDirtyAll
                                   : snapshots_->last_dirty());
      observe_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    });
  }

  // Monitor violations feed the bus out-of-band (the monitors themselves
  // stay obs-free: the hook is a type-erased callback in the spec layer).
  bus_->set_monitor_names(monitor_set_.monitor_names());
  monitor_set_.set_violation_hook([this](SimTime t, std::size_t index) {
    // Attribute the violation to its root-cause fault(s) before recording,
    // so the bus event carries the attribution (unconditionally: the
    // blast-radius aggregates must not depend on the bus being enabled).
    obs::TaintSet attributed;
    if (provenance_ != nullptr) {
      attributed = provenance_->attribute_violation(t);
    }
    if (bus_->enabled()) {
      obs::Event e;
      e.kind = obs::EventKind::kMonitorViolation;
      e.monitor = static_cast<std::uint16_t>(index);
      e.taint = attributed;
      bus_->record(e);
    }
  });

  // Push histograms fed by passive observers. Everything is sim-domain
  // valued, so the metrics are a pure function of the seed.
  if (config_.collect_metrics) {
    histograms_ = std::make_unique<Histograms>();
    hungry_since_.assign(config_.n, kNever);
    net_->add_send_observer(
        [this, &hist = *histograms_](const net::Message& msg) {
          hist.in_flight.observe(net_->in_flight());
          hist.queue_depth.observe(net_->channel(msg.from, msg.to).in_flight());
        });
    for (ProcessId pid = 0; pid < config_.n; ++pid) {
      processes_[pid]->add_state_observer(
          [this, &hist = *histograms_, pid](me::TmeState, me::TmeState to) {
            if (to == me::TmeState::kHungry) {
              hungry_since_[pid] = sched_.now();
            } else if (to == me::TmeState::kEating &&
                       hungry_since_[pid] != kNever) {
              hist.cs_wait.observe(sched_.now() - hungry_since_[pid]);
              hungry_since_[pid] = kNever;
            }
          });
    }
  }
}

SystemHarness::~SystemHarness() = default;

me::TmeProcess& SystemHarness::process(ProcessId pid) {
  GBX_EXPECTS(pid < processes_.size());
  return *processes_[pid];
}

me::Client& SystemHarness::client(ProcessId pid) {
  GBX_EXPECTS(pid < clients_.size());
  return *clients_[pid];
}

wrapper::GrayboxWrapper* SystemHarness::wrapper(ProcessId pid) {
  GBX_EXPECTS(pid < wrappers_.size());
  return wrappers_[pid].get();
}

const lspec::SnapshotSource& SystemHarness::snapshots() const {
  GBX_EXPECTS(snapshots_ != nullptr);
  return *snapshots_;
}

wrapper::LocalWrapper* SystemHarness::local_wrapper(ProcessId pid) {
  GBX_EXPECTS(pid < local_wrappers_.size());
  return local_wrappers_[pid].get();
}

void SystemHarness::start() {
  if (started_) return;
  started_ = true;
  for (auto& client : clients_) client->start();
  for (auto& w : wrappers_)
    if (w) w->start();
  for (auto& lw : local_wrappers_)
    if (lw) lw->start();
  fault_load_->start();
}

void SystemHarness::on_fault_arrival() {
  const SimTime now = sched_.now();
  if (prev_fault_time_ != kNever) {
    // Close the previous fault's window at the last safety violation it
    // produced (0 when the system absorbed the fault violation-free).
    const SimTime last = last_safety_violation();
    const SimTime gap = (last != kNever && last >= prev_fault_time_)
                            ? last - prev_fault_time_
                            : 0;
    ++reconverge_windows_;
    reconverge_ticks_ += gap;
    if (histograms_ != nullptr) histograms_->reconverge.observe(gap);
  }
  prev_fault_time_ = now;
}

void SystemHarness::drain(SimTime period) {
  for (auto& client : clients_) client->stop_requesting();
  sched_.run_for(period);
  monitor_set_.finish(sched_.now());
  drained_ = true;
}

bool SystemHarness::quiescent() const {
  if (net_->in_flight() != 0) return false;
  for (const auto& p : processes_) {
    if (!p->thinking()) return false;
  }
  return true;
}

StabilizationReport SystemHarness::stabilization_report() const {
  GBX_EXPECTS(config_.install_monitors);
  StabilizationReport report;
  // Lifecycle faults (crash/recovery, partition/heal) count: latency is
  // measured from the last perturbation of any kind.
  report.last_fault = faults_->last_fault_time();
  report.faults_injected = report.last_fault != kNever;

  for (const lspec::TmeMonitor* m : safety_monitors(tme_handles_))
    if (m != nullptr) report.violations_total += m->total_violations();
  const SimTime last = last_safety_violation();
  report.last_safety_violation = last;
  report.starvation =
      tme_handles_.me2 != nullptr && tme_handles_.me2->starvation_at_end();
  report.stabilized = !report.starvation;

  if (last != kNever && report.faults_injected && last > report.last_fault) {
    report.latency = last - report.last_fault;
  } else {
    report.latency = 0;
  }
  return report;
}

SimTime SystemHarness::last_safety_violation() const {
  SimTime last = kNever;
  for (const lspec::TmeMonitor* m : safety_monitors(tme_handles_)) {
    if (m == nullptr || m->last_violation() == kNever) continue;
    if (last == kNever || m->last_violation() > last)
      last = m->last_violation();
  }
  return last;
}

obs::StabilizationTimeline SystemHarness::timeline() const {
  GBX_EXPECTS(config_.install_monitors);
  std::vector<obs::KindStats> clauses;
  for (const auto& m : monitor_set_.monitors()) {
    clauses.push_back(obs::KindStats{
        m->total_violations(), m->first_violation(), m->last_violation()});
  }
  obs::StabilizationTimeline tl = obs::fold_timeline(
      sched_.now(), faults_->code_stats(), monitor_set_.monitor_names(),
      clauses, {net_->last_send_time(), net_->last_delivery_time()});
  tl.quiescent = quiescent();
  return tl;
}

RunStats SystemHarness::stats() const {
  RunStats stats;
  stats.duration = sched_.now();
  stats.events_executed = sched_.executed();
  for (const auto& p : processes_) stats.cs_entries += p->cs_entries();
  for (const auto& c : clients_) stats.requests_issued += c->requests_issued();
  stats.messages_sent = net_->total_sent();
  stats.wrapper_messages = net_->sent_by_wrapper();
  stats.sent_request = net_->sent_of_type(net::MsgType::kRequest);
  stats.sent_reply = net_->sent_of_type(net::MsgType::kReply);
  stats.sent_release = net_->sent_of_type(net::MsgType::kRelease);
  stats.faults_injected = faults_->total_injected();
  const lspec::TmeMonitors& tm = tme_handles_;
  if (tm.me1 != nullptr) stats.me1_violations = tm.me1->total_violations();
  if (tm.me3 != nullptr) stats.me3_violations = tm.me3->total_violations();
  if (tm.invariant_i != nullptr)
    stats.invariant_violations = tm.invariant_i->total_violations();
  if (tm.mutual_belief != nullptr)
    stats.mutual_belief_violations = tm.mutual_belief->total_violations();
  for (const auto& lw : local_wrappers_)
    if (lw) stats.level1_corrections += lw->corrections();
  if (tm.me2 != nullptr) {
    stats.me2_served = tm.me2->served();
    stats.me2_max_wait = tm.me2->max_wait();
  }
  const auto& all = monitor_set_.monitors();
  for (std::size_t i = lspec_begin_; i < all.size(); ++i)
    stats.lspec_clause_violations += all[i]->total_violations();
  stats.observe_ns = observe_ns_;
  stats.crashes = faults_->count(net::FaultKind::kProcessCrash);
  stats.recoveries = faults_->count(net::FaultKind::kProcessRecover);
  stats.partitions = faults_->count(net::FaultKind::kPartition);
  stats.partition_heals = faults_->count(net::FaultKind::kPartitionHeal);
  stats.deliveries_to_crashed = net_->deliveries_to_crashed();
  stats.dropped_by_partition = net_->dropped_by_partition();
  // Fold the tail window (last fault to run end) into the reconvergence
  // numbers without disturbing the live tracker: stats() may be called
  // mid-run and again later.
  stats.reconverge_windows = reconverge_windows_;
  stats.reconverge_ticks_total = reconverge_ticks_;
  if (prev_fault_time_ != kNever) {
    ++stats.reconverge_windows;
    const SimTime last = last_safety_violation();
    if (last != kNever && last >= prev_fault_time_)
      stats.reconverge_ticks_total += last - prev_fault_time_;
  }

  if (provenance_ != nullptr) {
    stats.provenance_faults = provenance_->minted();
    for (const obs::BlastRadius& b : provenance_->blast()) {
      stats.processes_tainted += b.processes_tainted;
      stats.messages_tainted += b.messages_tainted;
      stats.violations_attributed += b.violations_attributed;
      stats.containment_ticks += b.containment();
    }
    stats.taint_overflows = provenance_->taint_overflows();
  }

  if (histograms_ != nullptr) stats.metrics = metrics(stats);
  return stats;
}

obs::MetricsSnapshot SystemHarness::metrics(const RunStats& stats) const {
  obs::MetricsSnapshot out;
  auto counter = [&out](std::string name, std::uint64_t value) {
    out.push_back(obs::counter_sample(std::move(name), value));
  };
  auto histogram = [&out](std::string name, const obs::Histogram& h) {
    out.push_back(obs::histogram_sample(std::move(name), h));
  };
  histogram("cs_wait_ticks", histograms_->cs_wait);
  histogram("channel_queue_depth", histograms_->queue_depth);
  histogram("net_in_flight", histograms_->in_flight);
  std::uint64_t resends = 0;
  for (const auto& w : wrappers_)
    if (w) resends += w->resends();
  counter("wrapper_resends", resends);
  counter("level1_corrections", stats.level1_corrections);
  const auto& codes = faults_->code_stats();
  for (std::size_t k = 0; k < codes.size(); ++k) {
    counter(std::string("faults.") +
                net::to_string(static_cast<net::FaultKind>(k)),
            codes[k].count);
  }
  for (const auto& m : monitor_set_.monitors())
    counter("violations." + m->name(), m->total_violations());
  // Availability under load: observed fault pressure and the fraction of
  // issued CS requests actually served (ppm; 10^6 when nothing issued).
  // Capped at 10^6: state corruption can fabricate CS entries no client
  // requested, and those must not read as surplus availability.
  counter("fault_rate_per_kilotick",
          stats.duration > 0 ? stats.faults_injected * 1000 / stats.duration
                             : 0);
  counter("availability_ppm",
          stats.requests_issued > 0
              ? std::min<std::uint64_t>(
                    1000000, stats.me2_served * 1000000 / stats.requests_issued)
              : 1000000);
  counter("deliveries_to_crashed", stats.deliveries_to_crashed);
  counter("dropped_by_partition", stats.dropped_by_partition);
  histogram("reconverge_ticks", histograms_->reconverge);
  // Blast-radius rollup (zeros when provenance is off, so the snapshot's
  // shape never depends on the provenance toggle).
  counter("provenance.faults_minted", stats.provenance_faults);
  counter("provenance.processes_tainted", stats.processes_tainted);
  counter("provenance.messages_tainted", stats.messages_tainted);
  counter("provenance.violations_attributed", stats.violations_attributed);
  counter("provenance.containment_ticks", stats.containment_ticks);
  counter("provenance.taint_overflows", stats.taint_overflows);
  return out;
}

}  // namespace graybox::core
