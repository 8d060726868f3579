// Sustained adversarial fault load: continuous, seeded fault streams.
//
// The paper's fault model (Section 3.1) allows "any finite number" of
// faults, but a one-shot burst only probes the transient: a stabilizing
// system's interesting regime is *continuous* adversity, where faults keep
// arriving and the wrapper must keep the system available between them
// (cf. probabilistic stabilization under ongoing faults in
// Devismes/Tixeuil/Yamashita, and speculative stabilization performance in
// Dubois/Guerraoui). FaultProcess turns the one-shot FaultInjector into a
// set of independent Poisson processes — one per fault kind, each with its
// own split RNG stream and exponential inter-arrival times — plus two
// *lifecycle* streams the injector cannot express:
//
//   * crash/recovery: a process fails (stops handling deliveries) and later
//     recovers into an "improperly initialized" state;
//   * partition/heal: the process set is bipartitioned (cross-side sends
//     are lost) and later healed.
//
// Lifecycle actions run through callbacks supplied by the harness, because
// processes and wrappers live above the network layer (the same pattern as
// FaultInjector::CorruptProcessFn). Every draw comes from a stream-private
// RNG split in a fixed order, so a fault schedule is a pure function of the
// seed regardless of what the system under test does — and is therefore
// byte-identical across experiment-engine worker counts.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "net/fault_injector.hpp"
#include "sim/scheduler.hpp"

namespace graybox::net {

/// Continuous fault-load shape. Every `*_mean` is a mean inter-arrival gap
/// in ticks for an independent Poisson stream; 0 disables that stream.
struct FaultProcessConfig {
  // Message-fault hazards (applied through FaultInjector::inject; arrivals
  // with no applicable target — e.g. a drop with nothing in flight — are
  // skipped, like the injector's own semantics).
  double drop_mean = 0;
  double duplicate_mean = 0;
  double corrupt_mean = 0;
  double reorder_mean = 0;
  /// Spurious adversarial traffic (fabricated messages on random links).
  double spurious_mean = 0;
  /// Transient process-state corruption hazard.
  double process_corrupt_mean = 0;
  /// Channel clear ("improperly initialized channel") hazard.
  double channel_clear_mean = 0;

  // Lifecycle streams.
  /// Mean gap between crash arrivals (each picks a random live process).
  double crash_mean = 0;
  /// Mean down-time before a crashed process recovers.
  double downtime_mean = 200;
  /// At most this many processes down at once; crash arrivals beyond the
  /// cap are skipped (a system with every process down has no behavior
  /// left to stabilize).
  std::size_t max_down = 1;
  /// Mean gap between partition arrivals (random bipartition each time).
  /// Partition masks are 64-bit, so a nonzero value requires n <= 64.
  double partition_mean = 0;
  /// Mean time a partition holds before healing.
  double partition_hold_mean = 200;

  /// Streams schedule arrivals in [start, end); kNever = no end.
  SimTime start = 0;
  SimTime end = kNever;

  bool any_enabled() const {
    return drop_mean > 0 || duplicate_mean > 0 || corrupt_mean > 0 ||
           reorder_mean > 0 || spurious_mean > 0 ||
           process_corrupt_mean > 0 || channel_clear_mean > 0 ||
           crash_mean > 0 || partition_mean > 0;
  }
};

/// One applied (not skipped) fault arrival; the determinism tests compare
/// whole schedules across runs.
struct FaultArrival {
  SimTime time = 0;
  /// Fault code: FaultKind value or a kFaultCode* lifecycle code.
  std::uint8_t code = 0;
  /// Crashed/recovered process for lifecycle codes 7/8; kNoProcess else.
  ProcessId pid = kNoProcess;
};

class FaultProcess {
 public:
  /// Lifecycle hooks supplied by the harness (the layer that owns
  /// processes, clients, and wrappers). `crash`/`partition` return false
  /// when the action is not applicable (process already down, partition
  /// already active); the arrival is then skipped and not recorded.
  struct Callbacks {
    std::function<bool(ProcessId)> crash;
    std::function<void(ProcessId)> recover;
    std::function<bool(std::uint64_t)> partition;  // bipartition mask
    std::function<void()> heal;
  };

  /// `n` is the process count (crash targets and partition masks are drawn
  /// from it). Streams draw from RNGs split off `rng` in a fixed order.
  /// Requires n <= 64 when the partition stream is enabled.
  FaultProcess(sim::Scheduler& sched, FaultInjector& injector, std::size_t n,
               FaultProcessConfig config, Rng rng, Callbacks callbacks = {});

  FaultProcess(const FaultProcess&) = delete;
  FaultProcess& operator=(const FaultProcess&) = delete;

  /// Arm every enabled stream (first arrivals sampled from `config.start`).
  /// No-op when already running or nothing is enabled.
  void start();

  /// Stop scheduling new arrivals. Already-scheduled arrivals become
  /// no-ops; a pending recovery/heal still executes (a stopped adversary
  /// does not strand a crashed process).
  void stop();

  bool running() const { return running_; }
  const FaultProcessConfig& config() const { return config_; }

  /// Applied fault arrivals, in time order (skipped arrivals excluded).
  /// Recorded only while `record_schedule(true)` — the default keeps long
  /// runs allocation-free.
  void record_schedule(bool on) { record_schedule_ = on; }
  const std::vector<FaultArrival>& schedule() const { return schedule_; }

  /// Arrivals that fired, applied or not (targetless message faults and
  /// capped crashes are skipped; the injector counts the applied ones).
  std::uint64_t arrivals_fired() const { return arrivals_fired_; }

 private:
  // Stream indices: the FaultKind codes 0..6, then crash, then partition.
  static constexpr std::size_t kCrashStream = kFaultKindCount;
  static constexpr std::size_t kPartitionStream = kFaultKindCount + 1;
  static constexpr std::size_t kStreamCount = kFaultKindCount + 2;

  double stream_mean(std::size_t stream) const;
  /// Schedule the next arrival of `stream` at now/start + gap.
  void arm(std::size_t stream, SimTime from);
  void fire(std::size_t stream);
  void fire_crash();
  void fire_partition();
  void note(std::uint8_t code, ProcessId pid);

  sim::Scheduler& sched_;
  FaultInjector& injector_;
  std::size_t n_;
  FaultProcessConfig config_;
  Callbacks callbacks_;
  /// One RNG per stream, split in fixed index order at construction, plus
  /// one for lifecycle durations — draw order is independent of the system
  /// under test.
  std::array<Rng, kStreamCount> stream_rngs_;
  Rng lifecycle_rng_;
  bool running_ = false;
  bool record_schedule_ = false;
  std::vector<FaultArrival> schedule_;
  std::uint64_t arrivals_fired_ = 0;
  /// Per pid: crashed by this FaultProcess and not yet recovered (its own
  /// view; manual harness crashes are not tracked).
  std::vector<char> down_;
  std::size_t down_count_ = 0;
  bool partition_active_ = false;
};

}  // namespace graybox::net
