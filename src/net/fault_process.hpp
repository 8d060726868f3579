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
// *lifecycle* streams whose faults come in pairs:
//
//   * crash/recovery: a process fails (stops handling deliveries) and later
//     recovers into an "improperly initialized" state;
//   * partition/heal: the process set is bipartitioned (cross-side sends
//     are lost) and later healed.
//
// Every fault goes through FaultInjector::inject_targeted, which applies,
// counts and names it; a false return means the arrival did not apply and
// is skipped. Every draw comes from a stream-private RNG split in a fixed
// order, so a fault schedule is a pure function of the seed regardless of
// what the system under test does — and is therefore byte-identical across
// experiment-engine worker counts.
#pragma once

#include <array>

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

class FaultProcess {
 public:
  /// Crash targets and partition masks are drawn over `net`'s processes,
  /// and `max_down` reads its crash count. Streams draw from RNGs split off
  /// `rng` in a fixed order. Requires net.size() <= 64 when the partition
  /// stream is enabled.
  FaultProcess(sim::Scheduler& sched, FaultInjector& injector,
               const Network& net, FaultProcessConfig config, Rng rng);

  FaultProcess(const FaultProcess&) = delete;
  FaultProcess& operator=(const FaultProcess&) = delete;

  /// Arm every enabled stream (first arrivals sampled from `config.start`).
  /// No-op when already running or nothing is enabled.
  void start();

  bool running() const { return running_; }
  const FaultProcessConfig& config() const { return config_; }

 private:
  // Stream indices: the mixable FaultKind codes 0..6, then crash, then
  // partition.
  static constexpr std::size_t kCrashStream = kMixKindCount;
  static constexpr std::size_t kPartitionStream = kMixKindCount + 1;
  static constexpr std::size_t kStreamCount = kMixKindCount + 2;

  double stream_mean(std::size_t stream) const;
  /// Schedule the next arrival of `stream` at now/start + gap.
  void arm(std::size_t stream, SimTime from);
  void fire(std::size_t stream);
  void fire_crash();
  void fire_partition();
  /// Apply `f` now and, when it applied, apply `f` with code `undo` after
  /// `delay` ticks (the recovery of a crash, the heal of a partition).
  void apply_pair(TargetedFault f, FaultKind undo, SimTime delay);

  sim::Scheduler& sched_;
  FaultInjector& injector_;
  const Network& net_;
  FaultProcessConfig config_;
  /// One RNG per stream, split in fixed index order at construction, plus
  /// one for lifecycle durations — draw order is independent of the system
  /// under test.
  std::array<Rng, kStreamCount> stream_rngs_;
  Rng lifecycle_rng_;
  bool running_ = false;
};

}  // namespace graybox::net
