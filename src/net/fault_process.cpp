#include "net/fault_process.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::net {

FaultProcess::FaultProcess(sim::Scheduler& sched, FaultInjector& injector,
                           std::size_t n, FaultProcessConfig config, Rng rng,
                           Callbacks callbacks)
    : sched_(sched),
      injector_(injector),
      n_(n),
      config_(config),
      callbacks_(std::move(callbacks)),
      down_(n, 0) {
  GBX_EXPECTS(n_ >= 1);
  GBX_EXPECTS(config_.partition_mean <= 0 || n_ <= 64);
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

void FaultProcess::stop() { running_ = false; }

void FaultProcess::arm(std::size_t stream, SimTime from) {
  const SimTime gap = std::max<SimTime>(
      1, stream_rngs_[stream].exponential(stream_mean(stream)));
  const SimTime at = from + gap;
  if (config_.end != kNever && at >= config_.end) return;
  sched_.schedule_at(at, [this, stream] {
    if (!running_) return;
    fire(stream);
    arm(stream, sched_.now());
  });
}

void FaultProcess::fire(std::size_t stream) {
  ++arrivals_fired_;
  if (stream == kCrashStream) {
    fire_crash();
    return;
  }
  if (stream == kPartitionStream) {
    fire_partition();
    return;
  }
  const auto kind = static_cast<FaultKind>(stream);
  // inject() returns false when the kind has no target right now (e.g. a
  // drop with nothing in flight); the arrival is skipped, the stream keeps
  // going — exactly a Poisson adversary whose shot missed.
  if (injector_.inject(kind))
    note(static_cast<std::uint8_t>(stream), kNoProcess);
}

void FaultProcess::fire_crash() {
  // Draw the target before applicability checks so the stream's RNG state
  // never depends on how many processes happen to be down.
  const auto pid = static_cast<ProcessId>(stream_rngs_[kCrashStream].index(n_));
  const SimTime down =
      std::max<SimTime>(1, lifecycle_rng_.exponential(config_.downtime_mean));
  if (callbacks_.crash == nullptr) return;
  if (down_count_ >= config_.max_down) return;
  if (down_[pid]) return;
  if (!callbacks_.crash(pid)) return;
  down_[pid] = 1;
  ++down_count_;
  note(kFaultCodeProcessCrash, pid);
  sched_.schedule_at(sched_.now() + down, [this, pid] {
    if (!down_[pid]) return;
    down_[pid] = 0;
    --down_count_;
    if (callbacks_.recover) callbacks_.recover(pid);
    note(kFaultCodeProcessRecover, pid);
  });
}

void FaultProcess::fire_partition() {
  // Same principle: all draws happen unconditionally, then applicability.
  std::uint64_t mask = 0;
  auto& rng = stream_rngs_[kPartitionStream];
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (rng.chance(0.5)) mask |= std::uint64_t{1} << pid;
  }
  const std::uint64_t all =
      n_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n_) - 1;
  // A degenerate draw (everyone on one side) is not a partition; isolate a
  // single random process instead.
  if (mask == 0 || mask == all) mask = std::uint64_t{1} << rng.index(n_);
  const SimTime hold = std::max<SimTime>(
      1, lifecycle_rng_.exponential(config_.partition_hold_mean));
  if (callbacks_.partition == nullptr) return;
  if (partition_active_) return;
  if (!callbacks_.partition(mask)) return;
  partition_active_ = true;
  note(kFaultCodePartition, kNoProcess);
  sched_.schedule_at(sched_.now() + hold, [this] {
    if (!partition_active_) return;
    partition_active_ = false;
    if (callbacks_.heal) callbacks_.heal();
    note(kFaultCodePartitionHeal, kNoProcess);
  });
}

void FaultProcess::note(std::uint8_t code, ProcessId pid) {
  if (!record_schedule_) return;
  schedule_.push_back(FaultArrival{sched_.now(), code, pid});
}

}  // namespace graybox::net
