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
//   * expose the channels' fault surface to the FaultInjector.
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

  /// Monotone counter bumped whenever vclock(pid) changes (send, delivery,
  /// local event). The snapshot source's dirty tracking compares it against
  /// the version it last captured.
  std::uint64_t vclock_version(ProcessId pid) const {
    return vclock_versions_[pid];
  }

  /// Reference mode: stamp every outgoing message with a full dense clock
  /// (the pre-sparse encoding) instead of per-channel deltas. The two
  /// encodings produce bit-identical receiver clocks. The harness sets it
  /// from HarnessConfig::reference_substrate.
  void set_dense_stamps(bool dense) { dense_stamps_ = dense; }
  bool dense_stamps() const { return dense_stamps_; }

  /// Directed channel from -> to. Requires from != to.
  Channel& channel(ProcessId from, ProcessId to);
  const Channel& channel(ProcessId from, ProcessId to) const;

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
    return (((partition_mask_ >> a) ^ (partition_mask_ >> b)) & 1u) != 0;
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
  std::uint64_t total_delivered() const { return total_delivered_; }
  std::uint64_t sent_by_wrapper() const { return sent_by_wrapper_; }
  std::uint64_t sent_of_type(MsgType t) const {
    return sent_by_type_[static_cast<std::size_t>(t)];
  }

 private:
  std::size_t channel_index(ProcessId from, ProcessId to) const;
  void deliver(const Message& msg);
  /// Stamp `msg` for the channel from -> to: a delta of the components
  /// modified since the channel's baseline (plus its carry set), falling
  /// back to dense when forced or too large.
  void build_stamp(const Channel& ch, Message& msg, ProcessId from);

  sim::Scheduler& sched_;
  std::size_t n_;
  std::vector<std::unique_ptr<Channel>> channels_;  // n*n, diagonal unused
  std::vector<Handler> handlers_;
  std::vector<clk::VectorClock> vclocks_;
  std::vector<std::uint64_t> vclock_versions_;
  /// Flat n*n: mod_seq_[pid * n + c] is the value vclock_version(pid) had
  /// when component c of pid's clock last changed. Drives delta stamps:
  /// a send on a channel carries exactly the components whose mod-seq
  /// exceeds the channel's baseline (the sender version at its previous
  /// genuine enqueue).
  std::vector<std::uint64_t> mod_seq_;
  bool dense_stamps_ = false;
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
  std::uint64_t total_delivered_ = 0;
  std::uint64_t sent_by_wrapper_ = 0;
  std::uint64_t sent_by_type_[3] = {0, 0, 0};
};

}  // namespace graybox::net
