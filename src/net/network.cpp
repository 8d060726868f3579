#include "net/network.hpp"

#include "common/contracts.hpp"

namespace graybox::net {

namespace {

obs::Event message_event(obs::EventKind kind, const Message& msg) {
  obs::Event e;
  e.kind = kind;
  e.pid = msg.from;
  e.peer = msg.to;
  e.a = static_cast<std::uint8_t>(msg.type);
  e.payload = msg.ts.counter;
  e.aux = msg.ts.pid;
  if (msg.from_wrapper) e.flags |= obs::Event::kFromWrapper;
  e.uid = msg.uid;
  e.taint = msg.taint;
  return e;
}

}  // namespace

std::string Message::to_string() const {
  std::string out = net::to_string(type);
  out += "(" + ts.to_string() + ") " + std::to_string(from) + "->" +
         std::to_string(to);
  if (from_wrapper) out += " [wrapper]";
  return out;
}

Network::Network(sim::Scheduler& sched, std::size_t n, DelayModel delay,
                 Rng rng)
    : sched_(sched), n_(n), handlers_(n), crashed_(n, 0) {
  GBX_EXPECTS(n >= 1);
  channels_.resize(n * n);
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (from == to) continue;
      channels_[channel_index(from, to)] = std::make_unique<Channel>(
          sched, delay, rng.split(),
          [this](const Message& msg) { deliver(msg); });
      channels_[channel_index(from, to)]->set_choice_tag(
          make_delivery_tag(from, to));
    }
  }
  vclocks_.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) vclocks_.emplace_back(pid, n);
  touched_flag_.assign(n, 0);
  for (auto& ch : channels_) {
    if (!ch) continue;
    ch->set_in_flight_counter(&in_flight_);
    ch->set_spurious_uid_counter(&next_spurious_uid_);
  }
}

std::size_t Network::channel_index(ProcessId from, ProcessId to) const {
  GBX_EXPECTS(from < n_ && to < n_ && from != to);
  return static_cast<std::size_t>(from) * n_ + to;
}

void Network::set_handler(ProcessId pid, Handler handler) {
  GBX_EXPECTS(pid < n_);
  GBX_EXPECTS(handler != nullptr);
  handlers_[pid] = std::move(handler);
}

void Network::send(ProcessId from, ProcessId to, MsgType type,
                   clk::Timestamp ts, bool from_wrapper) {
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = to;
  msg.ts = ts;
  msg.from_wrapper = from_wrapper;
  msg.uid = next_uid_++;
  vclocks_[from].tick();
  touch(from);
  msg.vc = vclocks_[from];
  if (prov_ != nullptr) {
    msg.taint = prov_->process_taint(from);
    if (!msg.taint.empty()) prov_->note_message_taint(msg.taint);
  }

  ++total_sent_;
  ++sent_by_type_[static_cast<std::size_t>(type)];
  if (from_wrapper) ++sent_by_wrapper_;
  if (bus_) bus_->record(message_event(obs::EventKind::kSend, msg));
  for (const auto& obs : send_observers_) obs(msg);

  // A partition severs the link: the send event happened (observers above
  // saw it, the sender's clock ticked) but the message is lost on the wire.
  if (partitioned(from, to)) {
    ++dropped_by_partition_;
    if (bus_) {
      obs::Event d;
      d.kind = obs::EventKind::kDrop;
      d.pid = from;
      d.peer = to;
      d.payload = 1;
      bus_->record(d);
    }
    return;
  }

  channel(from, to).enqueue(std::move(msg));
}

void Network::set_partition(std::uint64_t mask) {
  GBX_EXPECTS(mask == 0 || n_ <= 64);
  partition_mask_ = mask;
}

void Network::set_crashed(ProcessId pid, bool down) {
  GBX_EXPECTS(pid < n_ && crashed(pid) != down);
  crashed_[pid] = down ? 1 : 0;
  crashed_count_ = down ? crashed_count_ + 1 : crashed_count_ - 1;
}

void Network::local_event(ProcessId pid) {
  GBX_EXPECTS(pid < n_);
  vclocks_[pid].tick();
  touch(pid);
}

void Network::take_touched(std::vector<ProcessId>& out) {
  out.clear();
  out.swap(touched_);
  for (const ProcessId pid : out) touched_flag_[pid] = 0;
}

const clk::VectorClock& Network::vclock(ProcessId pid) const {
  GBX_EXPECTS(pid < n_);
  return vclocks_[pid];
}

Channel& Network::channel(ProcessId from, ProcessId to) {
  return *channels_[channel_index(from, to)];
}

const Channel& Network::channel(ProcessId from, ProcessId to) const {
  return *channels_[channel_index(from, to)];
}

void Network::add_send_observer(MessageObserver obs) {
  send_observers_.push_back(std::move(obs));
}

void Network::add_delivery_observer(MessageObserver obs) {
  delivery_observers_.push_back(std::move(obs));
}

void Network::deliver(const Message& msg) {
  GBX_EXPECTS(msg.to < n_);
  // Fabricated (fault-injected) messages carry an empty clock; witnessing
  // requires matching sizes, so they only tick the receiver.
  clk::VectorClock& clock = vclocks_[msg.to];
  if (msg.vc.size() == n_) {
    clock.witness(msg.vc);
  } else {
    clock.tick();
  }
  touch(msg.to);
  if (bus_) bus_->record(message_event(obs::EventKind::kDeliver, msg));
  for (const auto& obs : delivery_observers_) obs(msg);
  if (crashed_[msg.to]) {
    ++deliveries_to_crashed_;
    return;
  }
  GBX_ASSERT(handlers_[msg.to] != nullptr);
  handlers_[msg.to](msg);
}

}  // namespace graybox::net
