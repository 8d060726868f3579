#include "net/fault_injector.hpp"

#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace graybox::net {

namespace {

bool mixable(FaultKind kind) {
  return static_cast<std::size_t>(kind) < kMixKindCount;
}

std::uint8_t bit(FaultKind kind) {
  GBX_EXPECTS(mixable(kind));
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(kind));
}

}  // namespace

FaultMix FaultMix::all() { return FaultMix{}.with(FaultKind::kChannelClear); }

FaultMix FaultMix::channel_only() {
  return FaultMix{}.without(FaultKind::kProcessCorrupt);
}

FaultMix FaultMix::process_only() { return only(FaultKind::kProcessCorrupt); }

FaultMix FaultMix::only(FaultKind kind) { return FaultMix{bit(kind)}; }

std::optional<FaultMix> FaultMix::parse(std::string_view name) {
  if (name == "all") return all();
  if (name == "channel") return channel_only();
  if (name == "process") return process_only();
  static constexpr std::pair<std::string_view, FaultKind> kSingles[] = {
      {"drop", FaultKind::kMessageDrop},
      {"duplicate", FaultKind::kMessageDuplicate},
      {"corrupt", FaultKind::kMessageCorrupt},
      {"reorder", FaultKind::kMessageReorder},
      {"spurious", FaultKind::kSpuriousMessage},
      {"clear", FaultKind::kChannelClear}};
  for (const auto& [single, kind] : kSingles)
    if (name == single) return only(kind);
  return std::nullopt;
}

FaultMix FaultMix::with(FaultKind kind) const {
  return FaultMix{static_cast<std::uint8_t>(bits | bit(kind))};
}

FaultMix FaultMix::without(FaultKind kind) const {
  return FaultMix{static_cast<std::uint8_t>(bits & ~bit(kind))};
}

bool FaultMix::enabled(FaultKind kind) const {
  return mixable(kind) && (bits & bit(kind)) != 0;
}

FaultInjector::FaultInjector(sim::Scheduler& sched, Network& net, Rng rng,
                             CorruptProcessFn corrupt_process)
    : sched_(sched),
      net_(net),
      rng_(rng),
      corrupt_process_(std::move(corrupt_process)) {}

Message FaultInjector::random_message(ProcessId from, ProcessId to) {
  Message msg;
  msg.type = static_cast<MsgType>(rng_.uniform(0, 2));
  msg.from = from;
  msg.to = to;
  msg.ts = clk::random_timestamp(rng_, net_.size());
  return msg;
}

obs::ProvenanceId FaultInjector::mint(FaultKind kind, ProcessId pid) {
  if (prov_ == nullptr) return obs::kNoProvenance;
  return prov_->mint(static_cast<std::uint8_t>(kind), pid, sched_.now());
}

void FaultInjector::note(FaultKind kind, ProcessId pid,
                         std::uint64_t dropped, obs::ProvenanceId id) {
  code_stats_[static_cast<std::size_t>(kind)].note(sched_.now());
  if (bus_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kFaultInjected;
    e.a = static_cast<std::uint8_t>(kind);
    e.pid = pid;
    e.payload = dropped;
    e.taint.add(id);
    bus_->record(e);
    if (dropped > 0) {
      obs::Event d;
      d.kind = obs::EventKind::kDrop;
      d.payload = dropped;
      d.taint.add(id);
      bus_->record(d);
    }
  }
  if (on_fault_) on_fault_();
}

void FaultInjector::taint_in_flight(Channel& ch, std::size_t index,
                                    obs::ProvenanceId id) {
  if (id == obs::kNoProvenance) return;
  ch.fault_taint(index, id);
  obs::TaintSet carried;
  carried.add(id);
  prov_->note_message_taint(carried);
}

bool FaultInjector::inject(FaultKind kind) {
  GBX_EXPECTS(mixable(kind));
  // Draw a target from the injector's RNG, then apply it through
  // inject_targeted, the one application path (which draws any content
  // randomness: corrupt payloads, spurious messages, process corruption).
  TargetedFault f;
  f.code = kind;
  const std::size_t n = net_.size();
  // Aim f at a channel drawn in proportion to `weight` (channels in (from,
  // to) order) and return the drawn unit's offset inside it; nullopt, with
  // nothing drawn, when every weight is 0.
  auto draw_channel = [&](auto weight) -> std::optional<std::uint32_t> {
    std::size_t total = 0;
    for (ProcessId from = 0; from < n; ++from)
      for (ProcessId to = 0; to < n; ++to)
        if (from != to) total += weight(net_.channel(from, to));
    if (total == 0) return std::nullopt;
    std::size_t pick = rng_.index(total);
    for (ProcessId from = 0; from < n; ++from) {
      for (ProcessId to = 0; to < n; ++to) {
        if (from == to) continue;
        const std::size_t w = weight(net_.channel(from, to));
        if (pick < w) {
          f.a = from;
          f.b = to;
          return static_cast<std::uint32_t>(pick);
        }
        pick -= w;
      }
    }
    GBX_ASSERT(false && "channel weights changed while drawing");
    return std::nullopt;
  };
  switch (kind) {
    case FaultKind::kMessageDrop:
    case FaultKind::kMessageDuplicate:
    case FaultKind::kMessageCorrupt: {
      // A uniformly random in-flight message across all channels.
      const auto index =
          draw_channel([](const Channel& ch) { return ch.in_flight(); });
      if (!index) return false;
      f.index = *index;
      break;
    }
    case FaultKind::kMessageReorder: {
      // A uniformly random channel holding at least two messages, then two
      // distinct positions in it.
      if (!draw_channel([](const Channel& ch) -> std::size_t {
            return ch.in_flight() >= 2 ? 1 : 0;
          }))
        return false;
      const std::size_t backlog = net_.channel(f.a, f.b).in_flight();
      f.index = static_cast<std::uint32_t>(rng_.index(backlog));
      f.index2 = static_cast<std::uint32_t>(rng_.index(backlog - 1));
      if (f.index2 >= f.index) ++f.index2;
      break;
    }
    case FaultKind::kSpuriousMessage: {
      if (n < 2) return false;
      f.a = static_cast<ProcessId>(rng_.index(n));
      f.b = static_cast<ProcessId>(rng_.index(n - 1));
      if (f.b >= f.a) ++f.b;
      break;
    }
    case FaultKind::kProcessCorrupt:
      if (corrupt_process_ == nullptr) return false;
      f.a = static_cast<ProcessId>(rng_.index(n));
      break;
    case FaultKind::kChannelClear:
      // Clearing an empty channel perturbs nothing; only nonempty channels
      // are targets, so a false return really means "no fault applied".
      if (!draw_channel([](const Channel& ch) -> std::size_t {
            return ch.empty() ? 0 : 1;
          }))
        return false;
      break;
    default:  // lifecycle kinds: excluded by the precondition
      break;
  }
  return inject_targeted(f);
}

bool FaultInjector::inject_targeted(const TargetedFault& f) {
  const std::size_t n = net_.size();
  // Message and channel faults name a channel: two distinct pids in range.
  const bool channel_named = f.a < n && f.b < n && f.a != f.b;
  ProcessId fault_pid = kNoProcess;
  std::uint64_t dropped = 0;
  obs::ProvenanceId id = obs::kNoProvenance;
  switch (f.code) {
    case FaultKind::kMessageDrop: {
      if (!channel_named) return false;
      Channel& ch = net_.channel(f.a, f.b);
      if (f.index >= ch.in_flight()) return false;
      ch.fault_drop(f.index);
      // The carrier is destroyed; the minted id only marks the injection
      // (its blast radius is the silence the drop causes, not spread).
      id = mint(f.code);
      dropped = 1;
      break;
    }
    case FaultKind::kMessageDuplicate: {
      if (!channel_named) return false;
      Channel& ch = net_.channel(f.a, f.b);
      if (f.index >= ch.in_flight()) return false;
      ch.fault_duplicate(f.index);
      // The duplicate (placed right behind the original) is the faulty
      // artifact; the original message stays clean.
      id = mint(f.code);
      taint_in_flight(ch, f.index + 1, id);
      break;
    }
    case FaultKind::kMessageCorrupt: {
      if (!channel_named) return false;
      Channel& ch = net_.channel(f.a, f.b);
      if (f.index >= ch.in_flight()) return false;
      const Message& original = ch.contents()[f.index];
      Message corrupted = random_message(original.from, original.to);
      ch.fault_corrupt(f.index, corrupted);
      id = mint(f.code);
      taint_in_flight(ch, f.index, id);
      break;
    }
    case FaultKind::kMessageReorder: {
      if (!channel_named) return false;
      Channel& ch = net_.channel(f.a, f.b);
      if (f.index == f.index2 || f.index >= ch.in_flight() ||
          f.index2 >= ch.in_flight())
        return false;
      ch.fault_swap(f.index, f.index2);
      // Both swapped messages are now out of FIFO order.
      id = mint(f.code);
      taint_in_flight(ch, f.index, id);
      taint_in_flight(ch, f.index2, id);
      break;
    }
    case FaultKind::kSpuriousMessage: {
      if (!channel_named) return false;
      Message fabricated = random_message(f.a, f.b);
      id = mint(f.code);
      if (id != obs::kNoProvenance) {
        fabricated.taint.add(id);
        prov_->note_message_taint(fabricated.taint);
      }
      net_.channel(f.a, f.b).fault_inject(fabricated);
      break;
    }
    case FaultKind::kProcessCorrupt: {
      if (corrupt_process_ == nullptr || f.a >= n) return false;
      corrupt_process_(f.a, rng_);
      fault_pid = f.a;
      id = mint(f.code, f.a);
      if (prov_ != nullptr) prov_->taint_process(f.a, id);
      break;
    }
    case FaultKind::kChannelClear: {
      if (!channel_named) return false;
      Channel& ch = net_.channel(f.a, f.b);
      if (ch.empty()) return false;
      dropped = ch.in_flight();
      ch.fault_clear();
      id = mint(f.code);
      break;
    }
    case FaultKind::kProcessCrash:
    case FaultKind::kProcessRecover: {
      const bool down = f.code == FaultKind::kProcessCrash;
      if (f.a >= n || net_.crashed(f.a) == down) return false;
      net_.set_crashed(f.a, down);
      if (lifecycle_) lifecycle_(f.a, down);
      fault_pid = f.a;
      // Crash and recovery corrupt the named process (recovery re-enters
      // an improperly initialized state).
      id = mint(f.code, f.a);
      if (prov_ != nullptr) prov_->taint_process(f.a, id);
      break;
    }
    case FaultKind::kPartition: {
      if (n > 64 || net_.partition_mask() != 0) return false;
      const std::uint64_t all =
          n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
      const std::uint64_t cut = f.mask & all;
      if (cut == 0 || cut == all) return false;
      net_.set_partition(cut);
      // A partition has no single target.
      id = mint(f.code);
      break;
    }
    case FaultKind::kPartitionHeal:
      if (net_.partition_mask() == 0) return false;
      net_.set_partition(0);
      id = mint(f.code);
      break;
    default:  // a value past the vocabulary applies nowhere
      return false;
  }
  note(f.code, fault_pid, dropped, id);
  return true;
}

bool FaultInjector::inject_random(const FaultMix& mix) {
  std::vector<FaultKind> kinds;
  for (std::size_t k = 0; k < kMixKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (mix.enabled(kind)) kinds.push_back(kind);
  }
  // Try kinds in random order until one applies.
  while (!kinds.empty()) {
    const std::size_t i = rng_.index(kinds.size());
    const FaultKind kind = kinds[i];
    if (inject(kind)) return true;
    kinds.erase(kinds.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return false;
}

void FaultInjector::burst(std::size_t count, const FaultMix& mix) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!inject_random(mix)) return;
  }
}

void FaultInjector::schedule_burst(SimTime at, std::size_t count,
                                   FaultMix mix) {
  sched_.schedule_at(at, [this, count, mix] { burst(count, mix); });
}

void FaultInjector::schedule_continuous(SimTime start, SimTime end,
                                        SimTime interval, FaultMix mix) {
  GBX_EXPECTS(interval > 0);
  for (SimTime t = start; t < end; t += interval) {
    sched_.schedule_at(t, [this, mix] { inject_random(mix); });
  }
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (const obs::KindStats& s : code_stats_) total += s.count;
  return total;
}

SimTime FaultInjector::last_fault_time() const {
  obs::KindStats all;
  for (const obs::KindStats& s : code_stats_) all.merge(s);
  return all.last;
}

}  // namespace graybox::net
