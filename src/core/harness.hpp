// SystemHarness: one fully wired TME system under simulation.
//
// Assembles the paper's case study end to end: a scheduler, a network of
// FIFO channels, n mutual-exclusion processes of a chosen implementation,
// one polling client per process, optionally one graybox wrapper per
// process (W' of Section 4), the fault injector, and the full monitoring
// battery (TME Spec monitors on per-event global snapshots plus the
// program-transition monitors).
//
// Typical experiment shape (see also core/experiment.hpp):
//
//   SystemHarness h(config);
//   h.start();
//   h.run_for(warmup);
//   h.faults().burst(k, net::FaultMix::all());
//   h.run_for(observation);
//   h.drain(drain_period);                  // stop new requests, settle
//   auto report = h.stabilization_report(); // judged over the whole run
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lspec/lspec_clause_monitors.hpp"
#include "lspec/program_monitors.hpp"
#include "lspec/snapshot.hpp"
#include "lspec/tme_monitors.hpp"
#include "me/client.hpp"
#include "me/protocol_registry.hpp"
#include "net/fault_injector.hpp"
#include "net/fault_process.hpp"
#include "net/network.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "wrapper/graybox_wrapper.hpp"
#include "wrapper/local_wrapper.hpp"

namespace graybox::core {

/// Wrapper-tier bits for HarnessConfig::per_process_tiers.
inline constexpr std::uint8_t kTierLevel1 = 1u << 0;
inline constexpr std::uint8_t kTierLevel2 = 1u << 1;

struct HarnessConfig {
  std::size_t n = 5;
  /// The protocols, as me::ProtocolRegistry specs ("name" or
  /// "name[key=value,...]", e.g. "carvalho-roucairol[lease=4]"): one spec
  /// for every process, or exactly n specs joined by '+' in pid order
  /// ("ricart-agrawala+lamport+ricart-agrawala+lamport"). Lspec is a LOCAL
  /// everywhere specification (Section 2.1), so the theory — and the
  /// wrapper — apply to mixed implementations; tests/test_heterogeneous.cpp
  /// probes exactly that. Resolved at harness construction: aliases are
  /// accepted; any other count of specs, an unknown name, an undeclared key
  /// or an unreadable value fails fast.
  std::string algorithm = "ricart-agrawala";

  /// Attach one GrayboxWrapper per process (the wrapped system M [] W' —
  /// the level-2, inter-process consistency tier).
  bool wrapped = true;
  wrapper::WrapperConfig wrapper{.resend_period = 25};

  /// Also attach one level-1 (intra-process consistency) wrapper per
  /// process (paper Section 2.2; wrapper/local_wrapper.hpp). Composable
  /// with level-2: either tier, or both, per process.
  bool level1 = false;
  wrapper::LocalWrapperConfig local_wrapper{};

  /// Per-process tier override (size n when non-empty): bit 0 = level-1,
  /// bit 1 = level-2 (kTierLevel1/kTierLevel2). Overrides wrapped/level1.
  std::vector<std::uint8_t> per_process_tiers{};

  net::DelayModel delay = net::DelayModel::uniform(1, 5);
  me::ClientConfig client{};

  /// Master seed; every stochastic component gets an independent stream.
  std::uint64_t seed = 1;

  /// Install the snapshot-based monitors: the TME battery, then the
  /// per-clause Lspec monitors (disable for pure-throughput microbenchmarks
  /// where monitoring cost would dominate).
  bool install_monitors = true;

  /// Run the reference observation substrate: step every monitor with
  /// spec::kDirtyAll (its full check) instead of the snapshot's dirty-row
  /// hint. Identical verdicts by contract — tests/test_snapshot_delta.cpp
  /// diffs whole runs with it on and off under the full fault matrix — so
  /// excluded from config_digest. Those tests and the E14 before/after pair
  /// set it.
  bool reference_substrate = false;

  /// Retain this many typed events in the observability bus (sends,
  /// deliveries, state transitions, faults, wrapper corrections, monitor
  /// violations). 0 disables event recording; the bus object always exists
  /// and every producer stays attached, so the disabled cost is one
  /// predicted branch per would-be event. events().dump() prints the ring
  /// as "[time] text" lines.
  std::size_t trace_capacity = 0;

  /// Fill RunStats::metrics: the CS-wait, queue-depth, in-flight and
  /// reconvergence histograms plus one sample per run counter. Purely
  /// passive — no RNG draws, no scheduling — so it never perturbs the run;
  /// excluded from config_digest for exactly that reason (the experiment
  /// engine forces it on per trial).
  bool collect_metrics = false;

  /// Sustained fault load: continuous per-kind fault streams plus
  /// crash/recovery and partition/heal lifecycles (net::FaultProcess),
  /// armed by start() when any stream rate is nonzero. The default
  /// (all-zero rates) leaves the subsystem idle and draws nothing.
  net::FaultProcessConfig fault_process{};

  /// Causal fault provenance (obs/provenance.hpp): every injection mints a
  /// deterministic id, corruption taints its target, taint propagates on
  /// send/deliver/transition and is cleared by wrapper corrections, and
  /// violations are attributed to their root-cause fault(s). Purely
  /// passive like collect_metrics — no RNG draws, no scheduling — so it
  /// never perturbs the run; excluded from config_digest for exactly that
  /// reason (the experiment engine forces it on per trial).
  bool provenance = false;
};

/// config.algorithm resolved process by process: n entries in pid order.
/// A single spec is resolved once and stands for every process; a count of
/// '+'-joined specs other than 1 or n fails the precondition.
std::vector<me::ResolvedProtocol> resolve_algorithm(
    const HarnessConfig& config);

/// The registry-canonical serialization of a config's algorithm choice:
/// per-process canonical specs ("name" or "name[key=value,...]", options
/// fully resolved), "+"-joined for heterogeneous systems. Two configs that
/// construct identical processes serialize identically regardless of how
/// their options were spelled, and the string is itself a valid
/// HarnessConfig::algorithm; the engine's config digests hash exactly it.
std::string algorithm_spec(const HarnessConfig& config);

struct RunStats {
  SimTime duration = 0;
  std::uint64_t cs_entries = 0;
  std::uint64_t requests_issued = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t wrapper_messages = 0;
  std::uint64_t sent_request = 0;
  std::uint64_t sent_reply = 0;
  std::uint64_t sent_release = 0;
  std::uint64_t me1_violations = 0;
  std::uint64_t me3_violations = 0;
  std::uint64_t invariant_violations = 0;
  /// MutualBelief monitor (installed only when some process opts out of
  /// view_entry_truth; 0 otherwise).
  std::uint64_t mutual_belief_violations = 0;
  /// Local state repairs applied by level-1 wrappers (0 when none attached).
  std::uint64_t level1_corrections = 0;
  std::uint64_t me2_served = 0;
  SimTime me2_max_wait = 0;
  std::uint64_t lspec_clause_violations = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t events_executed = 0;
  // Lifecycle faults (crash/recovery, partition/heal) — from the sustained
  // fault load or placed by hand.
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t partitions = 0;
  std::uint64_t partition_heals = 0;
  /// Deliveries swallowed because the destination process was crashed.
  std::uint64_t deliveries_to_crashed = 0;
  /// Sends lost at a partition cut.
  std::uint64_t dropped_by_partition = 0;
  /// Completed fault→fault windows (every fault arrival closes the window
  /// opened by the previous one; the tail window to run end included).
  std::uint64_t reconverge_windows = 0;
  /// Summed time-to-reconverge over those windows: per window, the gap
  /// from the fault to the last safety violation inside the window (0 for
  /// a violation-free window). reconverge_ticks_total / reconverge_windows
  /// is the mean time the system stayed divergent per fault arrival.
  std::uint64_t reconverge_ticks_total = 0;
  /// Wall nanoseconds spent in the observation hot path (snapshot capture
  /// + monitor stepping), summed over all events. Volatile: excluded from
  /// determinism comparisons.
  std::uint64_t observe_ns = 0;
  // Blast-radius rollup when config.provenance was set (zeros otherwise).
  // Per-fault rows live in SystemHarness::provenance()->blast(); these are
  // the deterministic sums folded across all minted faults.
  std::uint64_t provenance_faults = 0;     ///< ids minted (= faults seen)
  std::uint64_t processes_tainted = 0;     ///< summed per-fault spread
  std::uint64_t messages_tainted = 0;      ///< messages that carried taint
  std::uint64_t violations_attributed = 0; ///< violation->fault attributions
  std::uint64_t containment_ticks = 0;     ///< summed containment() windows
  std::uint64_t taint_overflows = 0;       ///< ids dropped by taint saturation
  /// Metric samples collected when config.collect_metrics was set; empty
  /// otherwise. All values are sim-domain, hence deterministic.
  obs::MetricsSnapshot metrics;
};

/// Verdict on a completed (drained) run; see stabilization.hpp.
struct StabilizationReport;

class SystemHarness {
 public:
  explicit SystemHarness(HarnessConfig config);
  ~SystemHarness();

  SystemHarness(const SystemHarness&) = delete;
  SystemHarness& operator=(const SystemHarness&) = delete;

  const HarnessConfig& config() const { return config_; }

  sim::Scheduler& scheduler() { return sched_; }
  net::Network& network() { return *net_; }
  /// Every fault of the model (§3.1), process crash/recovery and
  /// partition/heal included, is applied through faults().inject_targeted.
  /// A crashed process's deliveries are swallowed by the network and its
  /// client and wrappers stop; a recovered one re-enters an *improperly
  /// initialized* state (re-corrupted, not reset) and they restart.
  net::FaultInjector& faults() { return *faults_; }
  /// The sustained fault-load driver. Always constructed; idle unless
  /// config.fault_process enables a stream (started with start()).
  net::FaultProcess& fault_load() { return *fault_load_; }

  me::TmeProcess& process(ProcessId pid);
  me::Client& client(ProcessId pid);
  /// Null when this process runs without the level-2 tier.
  wrapper::GrayboxWrapper* wrapper(ProcessId pid);
  /// Null when this process runs without the level-1 tier.
  wrapper::LocalWrapper* local_wrapper(ProcessId pid);

  lspec::TmeMonitorSet& monitors() { return monitor_set_; }
  const lspec::TmeMonitors& tme_monitors() const { return tme_handles_; }
  /// The snapshot pair the monitors step on. Requires
  /// config.install_monitors.
  const lspec::SnapshotSource& snapshots() const;
  lspec::StructuralSpecMonitor& structural_monitor() { return *structural_; }
  lspec::SendMonotonicityMonitor& send_monitor() { return *send_mono_; }
  lspec::FifoMonitor& fifo_monitor() { return *fifo_; }

  /// The typed event bus. Always present; disabled (capacity 0) unless
  /// config.trace_capacity > 0.
  obs::EventBus& events() { return *bus_; }
  const obs::EventBus& events() const { return *bus_; }

  /// The provenance tracker; null unless config.provenance (producers hold
  /// the same nullable pointer — disabled cost is one predicted branch).
  obs::ProvenanceTracker* provenance() { return provenance_.get(); }
  const obs::ProvenanceTracker* provenance() const {
    return provenance_.get();
  }

  /// Arm clients and wrappers.
  void start();

  void run_for(SimTime duration) { sched_.run_for(duration); }

  /// Drain: stop admitting new CS requests, let outstanding requests and
  /// channel traffic settle for `period`, then close the monitors. After
  /// drain() the liveness verdicts (starvation) are meaningful.
  void drain(SimTime period);

  bool drained() const { return drained_; }

  StabilizationReport stabilization_report() const;
  RunStats stats() const;

  /// True when every process is thinking and no message is in flight.
  bool quiescent() const;

 private:
  /// Close the current reconvergence window (a new fault arrived).
  void on_fault_arrival();
  /// Latest report of the safety monitors (ME1, ME3, Invariant I, Mutual
  /// Belief); kNever when none reported. Each monitor keeps its last
  /// violation time past its retention cap, so this is exact, and it never
  /// moves backwards.
  SimTime last_safety_violation() const;
  /// RunStats::metrics: the histograms, then one sample per run counter
  /// read from `stats` or its component. Requires histograms_.
  obs::MetricsSnapshot metrics(const RunStats& stats) const;

  HarnessConfig config_;
  sim::Scheduler sched_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<me::TmeProcess>> processes_;
  std::vector<std::unique_ptr<me::Client>> clients_;
  /// Size n; a null entry means that process runs without that tier.
  std::vector<std::unique_ptr<wrapper::GrayboxWrapper>> wrappers_;
  std::vector<std::unique_ptr<wrapper::LocalWrapper>> local_wrappers_;
  std::unique_ptr<net::FaultInjector> faults_;
  std::unique_ptr<net::FaultProcess> fault_load_;
  /// RNG stream feeding the "improperly initialized" state a recovering
  /// process restarts with.
  Rng recovery_rng_;
  // Reconvergence tracking: every fault arrival closes the window opened
  // by the previous one at the last safety violation seen inside it.
  SimTime prev_fault_time_ = kNever;
  std::uint64_t reconverge_windows_ = 0;
  std::uint64_t reconverge_ticks_ = 0;
  std::unique_ptr<lspec::SnapshotSource> snapshots_;
  lspec::TmeMonitorSet monitor_set_;
  lspec::TmeMonitors tme_handles_;
  /// Set index of the first Lspec clause monitor; they follow the TME
  /// battery.
  std::size_t lspec_begin_ = 0;
  std::unique_ptr<obs::EventBus> bus_;
  /// Null unless config.provenance; owns per-process taint and the
  /// per-fault BlastRadius rows. Declared before the components holding a
  /// raw pointer to it would matter only for destructor use — none do —
  /// but keep it next to the bus it conceptually extends.
  std::unique_ptr<obs::ProvenanceTracker> provenance_;
  /// The push histograms stats() reports; null unless
  /// config.collect_metrics. Every counter sample is read from its
  /// component when stats() runs.
  struct Histograms {
    obs::Histogram cs_wait{obs::Histogram::pow2_bounds(20)};
    obs::Histogram queue_depth{obs::Histogram::pow2_bounds(10)};
    obs::Histogram in_flight{obs::Histogram::pow2_bounds(12)};
    obs::Histogram reconverge{obs::Histogram::pow2_bounds(20)};
  };
  std::unique_ptr<Histograms> histograms_;
  std::vector<SimTime> hungry_since_;  ///< per-pid CS wait start (metrics)
  std::uint64_t observe_ns_ = 0;
  std::unique_ptr<lspec::StructuralSpecMonitor> structural_;
  std::unique_ptr<lspec::SendMonotonicityMonitor> send_mono_;
  std::unique_ptr<lspec::FifoMonitor> fifo_;
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace graybox::core
