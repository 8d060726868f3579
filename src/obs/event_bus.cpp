#include "obs/event_bus.hpp"

#include <ostream>

#include "common/contracts.hpp"

namespace graybox::obs {

namespace {

/// The name of `code` in its enum's table, or `fallback` past the table.
template <typename Code, std::size_t N>
const char* name_in(const char* const (&names)[N], Code code,
                    const char* fallback) {
  const auto i = static_cast<std::size_t>(code);
  return i < N ? names[i] : fallback;
}

std::string message_text(const Event& e) {
  // Matches net::Message::to_string(): "type(counter.pid) from->to".
  std::string out = to_string(static_cast<MsgType>(e.a));
  out += "(" + std::to_string(e.payload) + "." + std::to_string(e.aux) +
         ") " + std::to_string(e.pid) + "->" + std::to_string(e.peer);
  if (e.flags & Event::kFromWrapper) out += " [wrapper]";
  return out;
}

}  // namespace

const char* to_string(EventKind kind) {
  static constexpr const char* kNames[kEventKindCount] = {
      "send",           "deliver",           "drop",
      "local-step",     "cs-enter",          "cs-exit",
      "fault-injected", "wrapper-correction", "monitor-violation",
      "local-correction"};
  return name_in(kNames, kind, "unknown-event");
}

const char* to_string(MsgType type) {
  static constexpr const char* kNames[] = {"request", "reply", "release"};
  return name_in(kNames, type, "corrupt-type");
}

const char* to_string(TmeState state) {
  static constexpr const char* kNames[] = {"thinking", "hungry", "eating"};
  return name_in(kNames, state, "corrupt-state");
}

const char* to_string(FaultKind kind) {
  static constexpr const char* kNames[kFaultKindCount] = {
      "message-drop",    "message-duplicate", "message-corrupt",
      "message-reorder", "spurious-message",  "process-corrupt",
      "channel-clear",   "process-crash",     "process-recover",
      "partition",       "partition-heal"};
  return name_in(kNames, kind, "unknown-fault");
}

const char* to_string(LocalPredicate predicate) {
  static constexpr const char* kNames[] = {
      "req-tracks-clock", "foreign-req", "req-above-clock"};
  return name_in(kNames, predicate, "corrupt-predicate");
}

EventBus::EventBus(const sim::Scheduler& sched, std::size_t capacity)
    : sched_(sched), capacity_(capacity) {
  if (capacity_ > 0) ring_.resize(capacity_);
}

void EventBus::record_slow(const Event& e) {
  Event stamped = e;
  stamped.time = sched_.now();

  kind_stats_[static_cast<std::size_t>(stamped.kind)].note(stamped.time);

  const std::size_t slot = (head_ + size_) % capacity_;
  ring_[slot] = stamped;
  if (size_ < capacity_) {
    ++size_;
  } else {
    head_ = (head_ + 1) % capacity_;  // evict the oldest
  }
  ++total_;
}

const Event& EventBus::event(std::size_t i) const {
  GBX_EXPECTS(i < size_);
  return ring_[(head_ + i) % capacity_];
}

void EventBus::clear() {
  head_ = 0;
  size_ = 0;
  total_ = 0;
  for (KindStats& s : kind_stats_) s = KindStats{};
}

std::string EventBus::render(const Event& e) const {
  switch (e.kind) {
    case EventKind::kSend:
      return "send " + message_text(e);
    case EventKind::kDeliver:
      return "recv " + message_text(e);
    case EventKind::kDrop:
      return "drop " + std::to_string(e.payload) + " message(s)";
    case EventKind::kLocalStep:
    case EventKind::kCsEnter:
    case EventKind::kCsExit:
      // "proc 0: thinking -> hungry".
      return "proc " + std::to_string(e.pid) + ": " +
             to_string(static_cast<TmeState>(e.a)) + " -> " +
             to_string(static_cast<TmeState>(e.b));
    case EventKind::kFaultInjected: {
      std::string out = "fault ";
      out += to_string(static_cast<FaultKind>(e.a));
      if (e.pid != kNoProcess) out += " @proc " + std::to_string(e.pid);
      return out;
    }
    case EventKind::kWrapperCorrection:
      return "wrapper " + std::to_string(e.pid) + ": resend REQ to " +
             std::to_string(e.peer);
    case EventKind::kMonitorViolation: {
      std::string name = e.monitor < monitor_names_.size()
                             ? monitor_names_[e.monitor]
                             : "monitor#" + std::to_string(e.monitor);
      return "violation " + name;
    }
    case EventKind::kLocalCorrection:
      return "local-wrapper " + std::to_string(e.pid) + ": repair " +
             to_string(static_cast<LocalPredicate>(e.a));
  }
  return to_string(e.kind);
}

void EventBus::dump(std::ostream& os, std::size_t last_n) const {
  for (std::size_t i = size_ > last_n ? size_ - last_n : 0; i < size_; ++i) {
    const Event& e = event(i);
    os << '[' << e.time << "] " << render(e) << '\n';
  }
}

}  // namespace graybox::obs
