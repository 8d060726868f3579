// Adversarial fault injection implementing the paper's fault model
// (Section 3.1): "messages [may] be corrupted, lost, or duplicated at any
// time. Moreover, processes (respectively channels) can be improperly
// initialized, fail, recover, or their state could be transiently (and
// arbitrarily) corrupted at any time. Stabilization is desired
// notwithstanding the occurrence of any finite number of these faults."
//
// The injector is the one place every obs::FaultKind is applied and
// counted. It perturbs channels and the network's crash and partition state
// directly, and reaches process state through two callbacks supplied by
// the harness (the process layer sits above this one): one corrupts a
// process, the other stops or restarts what runs beside a crashed or
// recovered one. Every perturbation draws from a seeded RNG, so an
// adversarial run is replayable. The injector keeps the run's only
// count/first/last record of every fault kind; stabilization latency is
// always measured from the last of them.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string_view>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/event_bus.hpp"
#include "sim/scheduler.hpp"

namespace graybox::net {

using obs::FaultKind;
using obs::kFaultKindCount;
using obs::kMixKindCount;

/// Which fault kinds a random adversary draws from: bit k enables
/// FaultKind k, for the kMixKindCount mixable kinds. The default is every
/// mixable kind but channel clear, which is rarely useful in random mixes.
struct FaultMix {
  std::uint8_t bits = 0b0111111;

  static FaultMix all();
  static FaultMix channel_only();
  static FaultMix process_only();
  /// Requires a mixable kind, as with() does.
  static FaultMix only(FaultKind kind);
  /// The mix a --fault-kind flag names: all, channel (the five message
  /// kinds), process, or one of drop, duplicate, corrupt, reorder,
  /// spurious and clear. nullopt for any other name.
  static std::optional<FaultMix> parse(std::string_view name);
  /// The names parse() accepts, as the CLIs list them.
  static constexpr const char* kSpellings =
      "all | channel | process | drop | duplicate | corrupt | reorder | "
      "spurious | clear";

  FaultMix with(FaultKind kind) const;
  FaultMix without(FaultKind kind) const;
  bool enabled(FaultKind kind) const;
};

/// One fully specified fault application — what the model checker (src/mc)
/// enumerates, what a replayed ScheduleTrace re-applies and what the
/// sustained load's lifecycle streams apply. FaultInjector::inject_targeted
/// applies every kind.
struct TargetedFault {
  FaultKind code = FaultKind::kMessageDrop;
  /// Channel source for message faults; corrupted / crashed / recovered
  /// pid for process faults.
  ProcessId a = kNoProcess;
  /// Channel destination for message faults.
  ProcessId b = kNoProcess;
  /// In-flight index (drop / duplicate / corrupt / first swap position).
  std::uint32_t index = 0;
  /// Second in-flight index (reorder swaps index <-> index2).
  std::uint32_t index2 = 0;
  /// Bipartition mask (kPartition only; bit p = p's side).
  std::uint64_t mask = 0;
};

class FaultInjector {
 public:
  /// Arbitrarily corrupts the state of one process; supplied by the harness
  /// because processes live in a layer above the network.
  using CorruptProcessFn = std::function<void(ProcessId, Rng&)>;
  /// Stops (`down`) or restarts what runs beside a process the injector
  /// has just crashed or recovered; supplied by the harness for the same
  /// reason.
  using LifecycleFn = std::function<void(ProcessId, bool down)>;

  FaultInjector(sim::Scheduler& sched, Network& net, Rng rng,
                CorruptProcessFn corrupt_process);

  /// Apply one fault of the given mixable kind right now: draw a random
  /// target, then apply it with inject_targeted. Returns false when the
  /// kind has no applicable target (e.g. a message fault with no message in
  /// flight); no fault is recorded in that case.
  bool inject(FaultKind kind);

  /// Apply one fault of a random enabled kind. Kinds whose targets are
  /// absent are skipped; returns false if nothing was applicable.
  bool inject_random(const FaultMix& mix);

  /// Apply one fully specified fault of any kind. Returns false, recording
  /// nothing, when the fault does not apply: its target no longer exists
  /// (an index past the backlog, an empty channel), the process is already
  /// down (crash) or up (recover), a partition already holds (partition)
  /// or none does (heal), or the mask does not cut the processes both ways
  /// (masks are 64-bit, so no partition applies above 64 processes). A
  /// shrunk trace replayed against drifted state thus degrades to a no-op
  /// instead of tripping the channel contracts. Content randomness (corrupt
  /// payloads, spurious messages, process corruption) still draws from the
  /// seeded injector RNG, so a fixed call sequence is deterministic.
  bool inject_targeted(const TargetedFault& f);

  /// Apply up to `count` random faults right now.
  void burst(std::size_t count, const FaultMix& mix);

  /// Schedule a burst at an absolute time.
  void schedule_burst(SimTime at, std::size_t count, FaultMix mix);

  /// Inject one random fault every `interval` ticks in [start, end).
  void schedule_continuous(SimTime start, SimTime end, SimTime interval,
                           FaultMix mix);

  /// Fabricate an adversarial message payload (log-uniform magnitude
  /// timestamp, random type). Public so scenario tests can reuse it.
  Message random_message(ProcessId from, ProcessId to);

  /// Exact count / first / last per fault kind (kFaultKindCount rows).
  const std::array<obs::KindStats, kFaultKindCount>& code_stats() const {
    return code_stats_;
  }
  std::uint64_t count(FaultKind kind) const {
    return code_stats_[static_cast<std::size_t>(kind)].count;
  }
  /// All recorded faults of every kind.
  std::uint64_t total_injected() const;
  /// Time of the most recent recorded fault; kNever if none.
  SimTime last_fault_time() const;

  /// Attach the observability bus; every injected fault is recorded as a
  /// kFaultInjected event (plus kDrop for destroyed messages).
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Attach the provenance tracker; every applied fault then mints a
  /// deterministic provenance id and taints its target (the in-flight
  /// message it tampered with, or the corrupted process). nullptr (the
  /// default) disables.
  void set_provenance(obs::ProvenanceTracker* prov) { prov_ = prov; }

  /// Harness hook fired after every recorded fault (the reconvergence
  /// tracker keys its windows off fault arrivals).
  void set_fault_observer(std::function<void()> fn) {
    on_fault_ = std::move(fn);
  }

  /// Harness hook fired when a crash or recovery applies, after the
  /// network's crash flag flips and before the fault is recorded. Without
  /// one, a crash only silences the process's deliveries.
  void set_lifecycle(LifecycleFn fn) { lifecycle_ = std::move(fn); }

 private:
  /// Account one applied fault: bump the per-kind aggregate and emit bus
  /// events. `pid` names the corrupted process (process faults only);
  /// `dropped` counts messages destroyed; `id` is the fault's minted
  /// provenance id (0 when tracking is off).
  void note(FaultKind kind, ProcessId pid, std::uint64_t dropped,
            obs::ProvenanceId id);
  /// Mint the provenance id for one applied fault (0 when tracking is off).
  obs::ProvenanceId mint(FaultKind kind, ProcessId pid = kNoProcess);
  /// Taint the in-flight carrier the fault tampered with (no-op id 0).
  void taint_in_flight(Channel& ch, std::size_t index, obs::ProvenanceId id);

  sim::Scheduler& sched_;
  Network& net_;
  Rng rng_;
  CorruptProcessFn corrupt_process_;
  std::array<obs::KindStats, kFaultKindCount> code_stats_{};
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
  std::function<void()> on_fault_;
  LifecycleFn lifecycle_;
};

}  // namespace graybox::net
