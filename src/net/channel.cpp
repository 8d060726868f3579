#include "net/channel.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::net {

Channel::Channel(sim::Scheduler& sched, DelayModel delay, Rng rng,
                 DeliverFn deliver)
    : sched_(sched), delay_(delay), rng_(rng), deliver_(std::move(deliver)) {
  GBX_EXPECTS(deliver_ != nullptr);
}

void Channel::enqueue(Message&& msg) {
  const SimTime arrival =
      std::max(sched_.now() + delay_.sample(rng_), last_arrival_);
  last_arrival_ = arrival;
  queue_.push_back(std::move(msg));
  adjust_in_flight(+1);
  ++enqueued_;
  schedule_tick(arrival);
}

void Channel::schedule_tick(SimTime arrival) {
  sched_.schedule_at_tagged(arrival, choice_tag_,
                            [this, epoch = epoch_] { on_tick(epoch); });
}

void Channel::on_tick(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // scheduled before a fault_clear: stale
  if (queue_.empty()) return;  // message was dropped by a fault
  Message msg = queue_.pop_front();
  adjust_in_flight(-1);
  ++delivered_;
  deliver_(msg);
}

void Channel::fault_drop(std::size_t index) {
  GBX_EXPECTS(index < queue_.size());
  queue_.erase(index);
  adjust_in_flight(-1);
  ++dropped_by_fault_;
}

void Channel::fault_duplicate(std::size_t index) {
  GBX_EXPECTS(index < queue_.size());
  const Message copy = queue_[index];
  queue_.insert(index + 1, copy);
  adjust_in_flight(+1);
  // The duplicate needs its own delivery tick; deliver it no earlier than
  // the queue tail's nominal arrival to keep tick counts consistent, and
  // fold that time back into the floor so later enqueues stay monotone.
  last_arrival_ = std::max(sched_.now(), last_arrival_);
  schedule_tick(last_arrival_);
}

void Channel::fault_corrupt(std::size_t index, const Message& corrupted) {
  GBX_EXPECTS(index < queue_.size());
  // Keep the monitor-only causal metadata of the physical message: faults
  // corrupt payloads, they do not rewrite causality.
  Message replacement = corrupted;
  replacement.uid = queue_[index].uid;
  replacement.vc = queue_[index].vc;
  replacement.taint = queue_[index].taint;
  queue_[index] = replacement;
}

void Channel::fault_taint(std::size_t index, obs::ProvenanceId id) {
  GBX_EXPECTS(index < queue_.size());
  queue_[index].taint.add(id);
}

void Channel::fault_swap(std::size_t a, std::size_t b) {
  GBX_EXPECTS(a < queue_.size());
  GBX_EXPECTS(b < queue_.size());
  std::swap(queue_[a], queue_[b]);
}

void Channel::fault_inject(const Message& msg) {
  queue_.push_back(msg);
  // Fabricated messages never passed Network::send, so they have no uid;
  // stamp one from the reserved spurious range so distinct injections do
  // not alias each other in monitor correlation.
  if (queue_.back().uid == 0) {
    std::uint64_t& next = spurious_uid_counter_ != nullptr
                              ? *spurious_uid_counter_
                              : local_spurious_uid_;
    queue_.back().uid = next++;
  }
  adjust_in_flight(+1);
  last_arrival_ = std::max(sched_.now(), last_arrival_);
  schedule_tick(last_arrival_);
}

void Channel::fault_clear() {
  dropped_by_fault_ += queue_.size();
  adjust_in_flight(-static_cast<std::ptrdiff_t>(queue_.size()));
  queue_.clear();
  // An improperly initialized channel forgets everything: the delay floor
  // inherited from the cleared backlog and the ticks it had scheduled.
  last_arrival_ = sched_.now();
  ++epoch_;
}

}  // namespace graybox::net
