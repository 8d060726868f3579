// EventBus: the typed event hub of the observability layer.
//
// One bus per harness (or per hand-wired system). Producers — the network,
// the processes, the wrappers, the fault injector, the monitor set — hold a
// nullable pointer to it and record compact Events; the bus stamps the
// simulation time, appends to a preallocated ring, and maintains an exact
// count/first/last aggregate per event kind (it survives ring eviction).
// The per-fault-code and per-monitor rows live with their producers: the
// fault injector's code_stats() and the monitors.
//
// Cost model: record() on a disabled bus (capacity 0) is a single predicted
// branch; enabled it is a couple of array writes, no allocation ever after
// construction. bench_substrate_micro measures both sides.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "sim/scheduler.hpp"

namespace graybox::obs {

class EventBus {
 public:
  /// A bus retaining the most recent `capacity` events. 0 disables the bus
  /// entirely (recording, aggregates, and rendering all become no-ops).
  EventBus(const sim::Scheduler& sched, std::size_t capacity);

  bool enabled() const { return capacity_ != 0; }
  /// Current simulation time (what the next record() would be stamped with).
  SimTime now() const { return sched_.now(); }

  /// Record one event. `e.time` is overwritten with the scheduler's current
  /// time; every other field is the caller's. No-op when disabled.
  void record(Event e) {
    if (capacity_ == 0) return;
    record_slow(e);
  }

  // --- Retained ring (oldest first) -------------------------------------

  std::size_t size() const { return size_; }
  /// i-th retained event, 0 = oldest.
  const Event& event(std::size_t i) const;
  /// Total events ever recorded, retained or evicted.
  std::uint64_t total_recorded() const { return total_; }
  /// Drop retained events and reset all aggregates.
  void clear();

  // --- Exact aggregates (survive eviction) ------------------------------

  const KindStats& kind_stats(EventKind kind) const {
    return kind_stats_[static_cast<std::size_t>(kind)];
  }

  // --- Rendering --------------------------------------------------------

  /// Names of the monitors feeding kMonitorViolation events, in monitor
  /// index order: the one name table registered at run time, because
  /// monitors are. Every other code renders from its own to_string.
  void set_monitor_names(std::vector<std::string> names) {
    monitor_names_ = std::move(names);
  }
  const std::vector<std::string>& monitor_names() const {
    return monitor_names_;
  }

  /// Human-readable one-line rendering (no leading "[time]").
  std::string render(const Event& e) const;

  /// Print the newest `last_n` retained events, oldest first, one
  /// "[time] text" line each: the run's human-readable trace.
  void dump(std::ostream& os, std::size_t last_n = 64) const;

 private:
  void record_slow(const Event& e);

  const sim::Scheduler& sched_;
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  KindStats kind_stats_[kEventKindCount];
  std::vector<std::string> monitor_names_;
};

}  // namespace graybox::obs
