#include "net/fault_process.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::net {

FaultProcess::FaultProcess(sim::Scheduler& sched, FaultInjector& injector,
                           const Network& net, FaultProcessConfig config,
                           Rng rng)
    : sched_(sched), injector_(injector), net_(net), config_(config) {
  GBX_EXPECTS(config_.partition_mean <= 0 || net_.size() <= 64);
  GBX_EXPECTS(config_.downtime_mean > 0);
  GBX_EXPECTS(config_.partition_hold_mean > 0);
  // Fixed split order: stream RNGs by index, then lifecycle durations.
  // Nothing the system under test does can perturb these draws.
  for (std::size_t s = 0; s < kStreamCount; ++s) stream_rngs_[s] = rng.split();
  lifecycle_rng_ = rng.split();
}

double FaultProcess::stream_mean(std::size_t stream) const {
  switch (stream) {
    case static_cast<std::size_t>(FaultKind::kMessageDrop):
      return config_.drop_mean;
    case static_cast<std::size_t>(FaultKind::kMessageDuplicate):
      return config_.duplicate_mean;
    case static_cast<std::size_t>(FaultKind::kMessageCorrupt):
      return config_.corrupt_mean;
    case static_cast<std::size_t>(FaultKind::kMessageReorder):
      return config_.reorder_mean;
    case static_cast<std::size_t>(FaultKind::kSpuriousMessage):
      return config_.spurious_mean;
    case static_cast<std::size_t>(FaultKind::kProcessCorrupt):
      return config_.process_corrupt_mean;
    case static_cast<std::size_t>(FaultKind::kChannelClear):
      return config_.channel_clear_mean;
    case kCrashStream:
      return config_.crash_mean;
    case kPartitionStream:
      return config_.partition_mean;
  }
  return 0;
}

void FaultProcess::start() {
  if (running_ || !config_.any_enabled()) return;
  running_ = true;
  const SimTime from = std::max(config_.start, sched_.now());
  for (std::size_t s = 0; s < kStreamCount; ++s) {
    if (stream_mean(s) > 0) arm(s, from);
  }
}

void FaultProcess::arm(std::size_t stream, SimTime from) {
  const SimTime gap = std::max<SimTime>(
      1, stream_rngs_[stream].exponential(stream_mean(stream)));
  const SimTime at = from + gap;
  if (config_.end != kNever && at >= config_.end) return;
  sched_.schedule_at(at, [this, stream] {
    fire(stream);
    arm(stream, sched_.now());
  });
}

void FaultProcess::fire(std::size_t stream) {
  if (stream == kCrashStream) {
    fire_crash();
    return;
  }
  if (stream == kPartitionStream) {
    fire_partition();
    return;
  }
  // inject() returns false when the kind has no target right now (e.g. a
  // drop with nothing in flight); the arrival is skipped, the stream keeps
  // going — exactly a Poisson adversary whose shot missed.
  injector_.inject(static_cast<FaultKind>(stream));
}

void FaultProcess::fire_crash() {
  // Draw the target before applicability checks so the stream's RNG state
  // never depends on how many processes happen to be down.
  const auto pid =
      static_cast<ProcessId>(stream_rngs_[kCrashStream].index(net_.size()));
  const SimTime down =
      std::max<SimTime>(1, lifecycle_rng_.exponential(config_.downtime_mean));
  if (net_.crashed_count() >= config_.max_down) return;
  apply_pair(TargetedFault{.code = FaultKind::kProcessCrash, .a = pid},
             FaultKind::kProcessRecover, down);
}

void FaultProcess::fire_partition() {
  // Same principle: all draws happen unconditionally, then applicability.
  const std::size_t n = net_.size();
  std::uint64_t mask = 0;
  auto& rng = stream_rngs_[kPartitionStream];
  for (std::size_t pid = 0; pid < n; ++pid) {
    if (rng.chance(0.5)) mask |= std::uint64_t{1} << pid;
  }
  const std::uint64_t all =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  // A degenerate draw (everyone on one side) is not a partition; isolate a
  // single random process instead.
  if (mask == 0 || mask == all) mask = std::uint64_t{1} << rng.index(n);
  const SimTime hold = std::max<SimTime>(
      1, lifecycle_rng_.exponential(config_.partition_hold_mean));
  apply_pair(TargetedFault{.code = FaultKind::kPartition, .mask = mask},
             FaultKind::kPartitionHeal, hold);
}

void FaultProcess::apply_pair(TargetedFault f, FaultKind undo,
                              SimTime delay) {
  if (!injector_.inject_targeted(f)) return;
  f.code = undo;
  sched_.schedule_at(sched_.now() + delay,
                     [this, f] { injector_.inject_targeted(f); });
}

}  // namespace graybox::net
