#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"

namespace graybox::sim {

Scheduler::Scheduler() : buckets_(kWheelSize) {}

std::uint32_t Scheduler::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  if (s.gen == 0) ++s.gen;  // generation 0 is reserved for "never valid"
  free_slots_.push_back(slot);
}

EventId Scheduler::schedule_at(SimTime t, EventFn fn) {
  return schedule_at_tagged(t, 0, std::move(fn));
}

EventId Scheduler::schedule_at_tagged(SimTime t, std::uint64_t tag,
                                      EventFn fn) {
  GBX_EXPECTS(t >= now_);
  GBX_EXPECTS(fn != nullptr);
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.tag = tag;
  ++live_;
  // t >= now_ >= wheel_base_, so the subtraction cannot underflow.
  if (t - wheel_base_ < kWheelSize) {
    const std::size_t idx = t & kWheelMask;
    buckets_[idx].entries.push_back(BucketEntry{slot, s.gen});
    mark_occupied(idx);
    s.in_spill = false;
    ++wheel_live_;
  } else {
    spill_.push_back(SpillEntry{t, next_seq_++, slot, s.gen});
    std::push_heap(spill_.begin(), spill_.end(), SpillLater{});
    s.in_spill = true;
  }
  return make_id(slot, s.gen);
}

EventId Scheduler::schedule_after(SimTime delay, EventFn fn) {
  GBX_EXPECTS(delay <= kNever - now_);
  return schedule_at(now_ + delay, std::move(fn));
}

bool Scheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen) return false;  // already ran, cancelled, or recycled
  // One O(1) invalidation: bumping the generation orphans the queue entry
  // (it is skipped when visited); the slot itself is reusable immediately.
  --live_;
  if (s.in_spill) {
    ++spill_stale_;
  } else {
    ++bucket_stale_;
    --wheel_live_;
  }
  free_slot(slot);
  if (s.in_spill) compact_spill_if_worthwhile();
  return true;
}

void Scheduler::compact_spill_if_worthwhile() {
  // Stale spill entries linger until popped — which for repeatedly
  // re-armed far-future timers may be never. Rebuild once they outnumber
  // live spill events.
  const std::size_t live_spill = spill_.size() - spill_stale_;
  if (spill_stale_ < 64 || spill_stale_ <= live_spill) return;
  std::erase_if(spill_, [this](const SpillEntry& e) {
    return slots_[e.slot].gen != e.gen;
  });
  std::make_heap(spill_.begin(), spill_.end(), SpillLater{});
  spill_stale_ = 0;
  GBX_ENSURES(spill_.size() == live_spill);
}

void Scheduler::purge_stale() {
  if (bucket_stale_ > 0) {
    for (std::size_t word = 0; word < kBitmapWords; ++word) {
      std::uint64_t bits = occupied_[word];
      while (bits != 0) {
        const std::size_t idx =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        buckets_[idx].entries.clear();
        buckets_[idx].head = 0;
      }
      occupied_[word] = 0;
    }
    bucket_stale_ = 0;
  }
  spill_.clear();
  spill_stale_ = 0;
}

std::size_t Scheduler::next_occupied_distance() const {
  const std::size_t base = wheel_base_ & kWheelMask;
  std::size_t word = base >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (base & 63));
  for (std::size_t scanned = 0;; ++scanned) {
    if (bits != 0) {
      const std::size_t idx =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      return (idx - base) & kWheelMask;
    }
    if (scanned == kBitmapWords) return kWheelSize;
    word = (word + 1) & (kBitmapWords - 1);
    bits = occupied_[word];
    if (scanned == kBitmapWords - 1) {
      // Final visit of the base word: only the bits before `base` are
      // still unexamined (circular wrap).
      bits &= ~(~std::uint64_t{0} << (base & 63));
    }
  }
}

void Scheduler::promote_spill() {
  const SimTime horizon_end = wheel_base_ + kWheelSize;
  while (!spill_.empty() && spill_.front().time < horizon_end) {
    const SpillEntry e = spill_.front();
    std::pop_heap(spill_.begin(), spill_.end(), SpillLater{});
    spill_.pop_back();
    Slot& s = slots_[e.slot];
    if (s.gen != e.gen) {
      --spill_stale_;
      continue;
    }
    // Heap pop order is (time, seq) = global insertion order per tick, and
    // no direct insert can have targeted this tick yet (it only just
    // entered the wheel horizon), so append order stays deterministic.
    const std::size_t idx = e.time & kWheelMask;
    buckets_[idx].entries.push_back(BucketEntry{e.slot, e.gen});
    mark_occupied(idx);
    s.in_spill = false;
    ++wheel_live_;
  }
}

void Scheduler::advance_to_spill() {
  // No live event in the wheel: every pending event is in the spill level.
  while (!spill_.empty() && slots_[spill_.front().slot].gen != spill_.front().gen) {
    std::pop_heap(spill_.begin(), spill_.end(), SpillLater{});
    spill_.pop_back();
    --spill_stale_;
  }
  GBX_ASSERT(!spill_.empty());
  wheel_base_ = spill_.front().time;
  promote_spill();
}

bool Scheduler::step_bounded(SimTime limit) {
  if (live_ == 0) {
    // An idle scheduler keeps no tombstones (stale entries only matter
    // while events are pending to skip around).
    if (bucket_stale_ + spill_stale_ > 0) purge_stale();
    return false;
  }
  if (wheel_live_ == 0) {
    // Everything pending sits in the spill level. Drop stale tops so the
    // peek below sees a live event, and refuse to advance the base past
    // `limit`: wheel_base_ must never overtake now_ (run_until only moves
    // now_ to its limit), or a later schedule_at targeting a time between
    // now_ and the runaway base would underflow the horizon test, misfile
    // into the spill, and execute at a misread wheel position.
    while (!spill_.empty() &&
           slots_[spill_.front().slot].gen != spill_.front().gen) {
      std::pop_heap(spill_.begin(), spill_.end(), SpillLater{});
      spill_.pop_back();
      --spill_stale_;
    }
    GBX_ASSERT(!spill_.empty());  // live_ > 0 and the wheel is empty
    if (spill_.front().time > limit) return false;
    advance_to_spill();
  }
  while (true) {
    const std::size_t d = next_occupied_distance();
    GBX_ASSERT(d < kWheelSize);  // wheel_live_ > 0
    const std::size_t idx = (wheel_base_ + d) & kWheelMask;
    Bucket& b = buckets_[idx];
    bool executed_one = false;
    while (b.head < b.entries.size()) {
      {
        const BucketEntry e0 = b.entries[b.head];
        if (slots_[e0.slot].gen != e0.gen) {  // stale: cancelled in bucket
          ++b.head;
          --bucket_stale_;
          continue;
        }
      }
      const SimTime t = wheel_base_ + d;
      if (t > limit) return false;
      std::size_t pick = b.head;
      if (choice_hook_ != nullptr) {
        // Compact the unconsumed tail in place so the hook sees exactly
        // the live same-tick events, in insertion order. A bucket maps a
        // single tick inside the wheel horizon, so every live entry here
        // is ready now.
        std::size_t w = b.head;
        for (std::size_t r = b.head; r < b.entries.size(); ++r) {
          const BucketEntry& e = b.entries[r];
          if (slots_[e.slot].gen != e.gen) {
            --bucket_stale_;
            continue;
          }
          b.entries[w++] = e;
        }
        b.entries.resize(w);
        const std::size_t count = w - b.head;
        if (count >= 2) {
          choice_tags_.clear();
          for (std::size_t i = b.head; i < w; ++i)
            choice_tags_.push_back(slots_[b.entries[i].slot].tag);
          const std::size_t k =
              choice_hook_->choose(t, choice_tags_.data(), count);
          GBX_ASSERT(k < count);
          pick = b.head + k;
        }
      }
      const BucketEntry e = b.entries[pick];
      if (pick == b.head) {
        ++b.head;
      } else {
        // Out-of-order pick: remove it, keeping the rest in insertion
        // order (what the hook will be shown again next round).
        b.entries.erase(b.entries.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      }
      if (b.head == b.entries.size()) {
        b.entries.clear();
        b.head = 0;
        clear_occupied(idx);
      }
      if (d > 0) {
        // The base moves past ticks that can no longer receive events
        // (they are all < t <= any future schedule time), widening the
        // wheel horizon; newly covered spill events must enter their
        // buckets before any direct insert can target those ticks.
        wheel_base_ = t;
        promote_spill();
      }
      Slot& s = slots_[e.slot];
      EventFn fn = std::move(s.fn);
      --live_;
      --wheel_live_;
      free_slot(e.slot);
      now_ = t;
      ++executed_;
      fn();
      for (Observer& obs : observers_) obs(now_);
      executed_one = true;
      break;
    }
    if (executed_one) return true;
    // Bucket held only stale entries; reset it and keep scanning.
    b.entries.clear();
    b.head = 0;
    clear_occupied(idx);
  }
}

void Scheduler::run_until(SimTime t) {
  GBX_EXPECTS(t >= now_);
  while (step_bounded(t)) {
  }
  now_ = t;
}

void Scheduler::run_all(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (step()) {
    GBX_ASSERT(++ran <= max_events);
  }
}

void Scheduler::add_observer(Observer obs) {
  GBX_EXPECTS(obs != nullptr);
  observers_.push_back(std::move(obs));
}

}  // namespace graybox::sim
