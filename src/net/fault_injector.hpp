// Adversarial fault injection implementing the paper's fault model
// (Section 3.1): "messages [may] be corrupted, lost, or duplicated at any
// time. Moreover, processes (respectively channels) can be improperly
// initialized, fail, recover, or their state could be transiently (and
// arbitrarily) corrupted at any time. Stabilization is desired
// notwithstanding the occurrence of any finite number of these faults."
//
// The injector is the one place every fault code is applied, counted and
// named. It perturbs channels and the network's crash and partition state
// directly, and reaches process state through two callbacks supplied by
// the harness (the process layer sits above this one): one corrupts a
// process, the other stops or restarts what runs beside a crashed or
// recovered one. Every perturbation draws from a seeded RNG, so an
// adversarial run is replayable. The injector keeps the run's only
// count/first/last record of every fault code; stabilization latency is
// always measured from the last of them.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/event_bus.hpp"
#include "sim/scheduler.hpp"

namespace graybox::net {

enum class FaultKind : std::uint8_t {
  kMessageDrop = 0,
  kMessageDuplicate,
  kMessageCorrupt,
  kMessageReorder,
  kSpuriousMessage,
  kProcessCorrupt,
  kChannelClear,
};
inline constexpr std::size_t kFaultKindCount = 7;

const char* to_string(FaultKind kind);

/// Lifecycle faults (the paper's §3.1 "processes ... fail, recover" plus
/// network partitions). They are not FaultKind values — no random mix
/// draws them; the sustained load and the model checker place them — but
/// they share the fault-code space, appended after the FaultKind values,
/// and inject_targeted applies them like any other code.
inline constexpr std::uint8_t kFaultCodeProcessCrash = 7;
inline constexpr std::uint8_t kFaultCodeProcessRecover = 8;
inline constexpr std::uint8_t kFaultCodePartition = 9;
inline constexpr std::uint8_t kFaultCodePartitionHeal = 10;
/// Total fault codes: FaultKind values plus the lifecycle codes above.
inline constexpr std::size_t kFaultCodeCount = 11;

/// Name of any fault code (FaultKind values and lifecycle codes).
const char* fault_code_name(std::uint8_t code);

/// All fault code names in code order — the name table the observability
/// bus indexes kFaultInjected events with (kFaultCodeCount entries).
std::vector<std::string> fault_kind_names();

/// Which fault kinds an adversary may use.
struct FaultMix {
  bool message_drop = true;
  bool message_duplicate = true;
  bool message_corrupt = true;
  bool message_reorder = true;
  bool spurious_message = true;
  bool process_corrupt = true;
  bool channel_clear = false;  // rarely useful in random mixes; on-demand

  static FaultMix all();
  static FaultMix channel_only();
  static FaultMix process_only();
  static FaultMix only(FaultKind kind);

  bool enabled(FaultKind kind) const;
  std::vector<FaultKind> enabled_kinds() const;
};

/// One fully specified fault application — what the model checker (src/mc)
/// enumerates, what a replayed ScheduleTrace re-applies and what the
/// sustained load's lifecycle streams apply. `code` spans the full
/// fault-code space; FaultInjector::inject_targeted applies every code.
struct TargetedFault {
  std::uint8_t code = 0;
  /// Channel source for message faults; corrupted / crashed / recovered
  /// pid for process faults.
  ProcessId a = kNoProcess;
  /// Channel destination for message faults.
  ProcessId b = kNoProcess;
  /// In-flight index (drop / duplicate / corrupt / first swap position).
  std::uint32_t index = 0;
  /// Second in-flight index (reorder swaps index <-> index2).
  std::uint32_t index2 = 0;
  /// Bipartition mask (kFaultCodePartition only; bit p = p's side).
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

  /// Apply one fault of the given kind right now: draw a random target,
  /// then apply it with inject_targeted. Returns false when the kind has no
  /// applicable target (e.g. a message fault with no message in flight); no
  /// fault is recorded in that case.
  bool inject(FaultKind kind);

  /// Apply one fault of a random enabled kind. Kinds whose targets are
  /// absent are skipped; returns false if nothing was applicable.
  bool inject_random(const FaultMix& mix);

  /// Apply one fully specified fault of any code. Returns false, recording
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

  /// Exact count / first / last per fault code (kFaultCodeCount rows).
  const std::array<obs::KindStats, kFaultCodeCount>& code_stats() const {
    return code_stats_;
  }
  std::uint64_t count(FaultKind kind) const {
    return code_stats_[static_cast<std::size_t>(kind)].count;
  }
  /// All recorded faults of every code.
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
  /// Account one applied fault: bump the per-code aggregate and emit bus
  /// events. `pid` names the corrupted process (process faults only);
  /// `dropped` counts messages destroyed; `id` is the fault's minted
  /// provenance id (0 when tracking is off).
  void note(std::uint8_t code, ProcessId pid, std::uint64_t dropped,
            obs::ProvenanceId id);
  /// Mint the provenance id for one applied fault (0 when tracking is off).
  obs::ProvenanceId mint(std::uint8_t code, ProcessId pid = kNoProcess);
  /// Taint the in-flight carrier the fault tampered with (no-op id 0).
  void taint_in_flight(Channel& ch, std::size_t index, obs::ProvenanceId id);

  sim::Scheduler& sched_;
  Network& net_;
  Rng rng_;
  CorruptProcessFn corrupt_process_;
  std::array<obs::KindStats, kFaultCodeCount> code_stats_{};
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
  std::function<void()> on_fault_;
  LifecycleFn lifecycle_;
};

}  // namespace graybox::net
