// Lamport mutual exclusion (paper Section 5.2 / Appendix), with the two
// modifications the paper makes so that it *everywhere* implements Lspec:
//
//   1. Insert keeps at most one queue entry per process, so "a new request
//      from j corrects an old and possibly incorrect request of j";
//   2. CS entry requires j's request to be <=-head — realized as "no OTHER
//      process has a queue entry earlier than REQj" — so a corrupted or
//      missing own-entry cannot wedge the entry condition.
//
// Whitebox variables beyond the TmeProcess base:
//   queue_       - request_queue.j: known outstanding requests, <= 1/process;
//   last_heard_[k] - the timestamp of the most recent message from k. The
//      paper's grant.j.k is derived from it:  grant.j.k == REQj lt
//      last_heard[k]  (k's reply/any later message acknowledges our
//      request). Together these realize the paper's definition
//
//        REQj lt j.REQk  ==  grant.j.k /\ (REQk not ahead of REQj in
//                                          request_queue.j)
//
// Stale-entry retirement (the executable form of modification 1): any
// message from k carrying timestamp rts retires k's queue entry if
// entry.ts lt rts. Justification: REQk is monotone and every message from
// k carries REQk at its send time, so entry.ts lt rts proves the entry no
// longer describes k's current request. The ablation option
// head_only_release disables retirement except via the paper's literal
// "dequeue when head matches" release path; bench_ablations (A2) shows the
// resulting wedge under entry corruption.
#pragma once

#include <optional>
#include <vector>

#include "me/tme_process.hpp"

namespace graybox::me {

struct LamportOptions {
  /// Ablation A2: only remove queue entries via exact-release matching, as
  /// a literal reading of Lamport's receive-release would. Breaks recovery
  /// from corrupted queue entries. Keep false outside the ablation bench.
  bool head_only_release = false;
};

class LamportMe : public TmeProcess {
 public:
  struct QueueEntry {
    ProcessId pid;
    clk::Timestamp ts;
    friend bool operator==(const QueueEntry&, const QueueEntry&) = default;
  };

  LamportMe(ProcessId pid, net::Network& net, LamportOptions options = {});

  bool knows_earlier(ProcessId k) const override;
  /// One O(N + |queue|) pass instead of N queue scans.
  std::size_t fill_knows_row(std::span<char> row) const override;
  clk::Timestamp view_of(ProcessId k) const override;

  /// request_queue.j, ordered earliest-first. (Exposed for diagnostics.)
  const std::vector<QueueEntry>& queue() const { return queue_; }

  /// grant.j.k in the paper's sense: has k acknowledged our request?
  bool granted(ProcessId k) const;

  clk::Timestamp last_heard(ProcessId k) const;

  // Surgical fault surface.
  void fault_set_last_heard(ProcessId k, clk::Timestamp ts);
  void fault_insert_queue_entry(ProcessId k, clk::Timestamp ts);
  void fault_clear_queue();

 protected:
  void do_request() override;
  void do_release(clk::Timestamp new_req) override;
  void handle(const net::Message& msg) override;
  void do_corrupt(Rng& rng) override;

 private:
  /// Modification 1: at most one entry per process; keeps queue_ sorted.
  void insert_entry(ProcessId k, clk::Timestamp ts);
  /// Remove every entry of k strictly older than rts (stale retirement).
  void retire_stale_entries(ProcessId k, clk::Timestamp rts);
  void remove_entries_of(ProcessId k);
  std::optional<clk::Timestamp> entry_of(ProcessId k) const;

  LamportOptions options_;
  std::vector<QueueEntry> queue_;
  std::vector<clk::Timestamp> last_heard_;
};

}  // namespace graybox::me
