// The interprocess network: a complete graph of directed FIFO channels over
// n processes ("we assume that the processes are connected", Section 3.1),
// plus the monitor-side causality layer.
//
// Responsibilities:
//   * route Message sends into per-pair channels and deliver them to the
//     registered per-process handlers;
//   * assign message uids and thread vector clocks through sends/deliveries
//     so monitors can decide happened-before without the programs under
//     test ever seeing causal metadata;
//   * expose send/delivery observers (the lspec monitors and the
//     experiment accounting hook here);
//   * hold the crash and partition state, and expose it and the channels'
//     fault surface to the FaultInjector.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "clock/vector_clock.hpp"
#include "common/rng.hpp"
#include "net/channel.hpp"
#include "obs/event_bus.hpp"

namespace graybox::net {

class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  using MessageObserver = std::function<void(const Message&)>;

  /// A network of `n` processes with the given delay model. Each channel
  /// gets an independent RNG stream split from `rng`.
  Network(sim::Scheduler& sched, std::size_t n, DelayModel delay, Rng rng);

  std::size_t size() const { return n_; }

  /// Install the delivery handler for process `pid`. Must be set before the
  /// first delivery to that process.
  void set_handler(ProcessId pid, Handler handler);

  /// Send `type`/`ts` from `from` to `to`. Ticks the sender's monitor-side
  /// vector clock, stamps uid and vc, and enqueues on the FIFO channel.
  /// `from_wrapper` tags wrapper resends for accounting (see Message).
  void send(ProcessId from, ProcessId to, MsgType type, clk::Timestamp ts,
            bool from_wrapper = false);

  /// Record a local (non-send) event of `pid` in the causality layer; the
  /// harness calls this when a client triggers a request/release so the
  /// FCFS monitor sees those events in happened-before order.
  void local_event(ProcessId pid);

  /// Monitor-side causal clock of a process (snapshot semantics: the value
  /// after the process's most recent event).
  const clk::VectorClock& vclock(ProcessId pid) const;

  /// Observation's one change signal: note that some snapshot observable
  /// of `pid` may have changed. The network touches on every change to
  /// vclock(pid) (send, local event, delivery — to a crashed receiver too);
  /// TmeProcess touches after every program event and fault. Deduplicated,
  /// so the list never holds more than size() pids.
  void touch(ProcessId pid) {
    if (touched_flag_[pid]) return;
    touched_flag_[pid] = 1;
    touched_.push_back(pid);
  }

  /// Hand the pids touched since the last call to `out` (first-touch
  /// order; `out`'s old contents are dropped) and start a new list. The
  /// snapshot source calls this once per capture.
  void take_touched(std::vector<ProcessId>& out);

  /// Directed channel from -> to. Requires from != to.
  Channel& channel(ProcessId from, ProcessId to);
  const Channel& channel(ProcessId from, ProcessId to) const;

  // --- Crashes ----------------------------------------------------------

  /// Take process `pid` down (`down` = true) or bring it back; requires a
  /// change. A delivery to a crashed pid still merges clocks, is recorded
  /// and reaches the delivery observers (the network did its part, so
  /// monitors see it); only the handler is skipped — the process just
  /// isn't there to act on it.
  void set_crashed(ProcessId pid, bool down);
  bool crashed(ProcessId pid) const { return crashed_[pid] != 0; }
  /// Processes currently down.
  std::size_t crashed_count() const { return crashed_count_; }
  /// Deliveries swallowed because the destination process was crashed.
  std::uint64_t deliveries_to_crashed() const { return deliveries_to_crashed_; }

  // --- Partitions -------------------------------------------------------

  /// Install a bipartition of the processes: bit `p` of `mask` selects
  /// process p's side, and sends crossing sides are lost at send time (the
  /// link is down; the sender still performed its send event). Messages
  /// already in flight when the partition forms are NOT affected — they
  /// were on the wire before the cut. Mask 0 (the default) means fully
  /// connected; requires n <= 64 for a nonzero mask.
  void set_partition(std::uint64_t mask);
  std::uint64_t partition_mask() const { return partition_mask_; }
  /// True when `a` and `b` are currently on opposite partition sides.
  bool partitioned(ProcessId a, ProcessId b) const {
    // Shift only under a partition: that alone guarantees n <= 64, and a
    // shift by a pid >= 64 is undefined.
    return partition_mask_ != 0 &&
           (((partition_mask_ >> a) ^ (partition_mask_ >> b)) & 1u) != 0;
  }
  /// Messages lost to a partition at send time (accounted like drops).
  std::uint64_t dropped_by_partition() const { return dropped_by_partition_; }

  /// Total messages currently in flight across all channels. O(1): the
  /// channels mirror every queue-size change into a shared counter.
  std::size_t in_flight() const { return in_flight_; }

  /// Observers fire on every send (after stamping) and every delivery
  /// (before the handler runs).
  void add_send_observer(MessageObserver obs);
  void add_delivery_observer(MessageObserver obs);

  /// Attach the observability bus; every send and delivery is recorded as
  /// a typed event. nullptr (the default) detaches.
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Attach the provenance tracker; every send then stamps the sender's
  /// active taint onto the outgoing message (and accounts tainted
  /// messages). nullptr (the default) disables — one predicted branch on
  /// the send path.
  void set_provenance(obs::ProvenanceTracker* prov) { prov_ = prov; }

  /// Sim-time of the most recent send / delivery (kNever before the
  /// first). Feeds quiescence detection in the stabilization timeline.
  SimTime last_send_time() const { return last_send_time_; }
  SimTime last_delivery_time() const { return last_delivery_time_; }

  // --- Accounting -------------------------------------------------------
  std::uint64_t total_sent() const { return total_sent_; }
  std::uint64_t sent_by_wrapper() const { return sent_by_wrapper_; }
  std::uint64_t sent_of_type(MsgType t) const {
    return sent_by_type_[static_cast<std::size_t>(t)];
  }

 private:
  std::size_t channel_index(ProcessId from, ProcessId to) const;
  void deliver(const Message& msg);

  sim::Scheduler& sched_;
  std::size_t n_;
  std::vector<std::unique_ptr<Channel>> channels_;  // n*n, diagonal unused
  std::vector<Handler> handlers_;
  std::vector<clk::VectorClock> vclocks_;
  std::vector<ProcessId> touched_;
  std::vector<char> touched_flag_;  ///< per pid: currently in touched_
  std::size_t in_flight_ = 0;
  std::vector<MessageObserver> send_observers_;
  std::vector<MessageObserver> delivery_observers_;
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
  SimTime last_send_time_ = kNever;
  SimTime last_delivery_time_ = kNever;
  std::uint64_t next_uid_ = 1;
  /// Shared by all channels; see Channel::set_spurious_uid_counter.
  std::uint64_t next_spurious_uid_ = kSpuriousUidBase;
  std::uint64_t partition_mask_ = 0;
  std::uint64_t dropped_by_partition_ = 0;
  std::uint64_t total_sent_ = 0;
  std::uint64_t sent_by_wrapper_ = 0;
  std::uint64_t sent_by_type_[3] = {0, 0, 0};
  // Crash state last: placed among the send-path members above, it moved
  // their layout and cost ~2% events/s on perfbench's sustained_load_n32
  // and recovery_n256 (4-vCPU x86 host).
  std::vector<char> crashed_;  ///< per pid: currently down
  std::size_t crashed_count_ = 0;
  std::uint64_t deliveries_to_crashed_ = 0;
};

}  // namespace graybox::net
