#include "me/lamport.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::me {

LamportMe::LamportMe(ProcessId pid, net::Network& net, LamportOptions options)
    : TmeProcess(pid, net), options_(options) {
  last_heard_.resize(net.size());
  for (ProcessId k = 0; k < net.size(); ++k)
    last_heard_[k] = clk::Timestamp{0, k};
}

std::optional<clk::Timestamp> LamportMe::entry_of(ProcessId k) const {
  // Corruption can plant duplicate entries for one process; report the
  // earliest, which is the one that matters for blocking.
  std::optional<clk::Timestamp> earliest;
  for (const auto& entry : queue_) {
    if (entry.pid != k) continue;
    if (!earliest || clk::lt(entry.ts, *earliest)) earliest = entry.ts;
  }
  return earliest;
}

bool LamportMe::knows_earlier(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  // REQj lt j.REQk  ==  grant.j.k /\ (REQk not ahead of REQj in the queue).
  if (!clk::lt(req(), last_heard_[k])) return false;
  for (const auto& entry : queue_) {
    if (entry.pid == k && clk::lt(entry.ts, req())) return false;
  }
  return true;
}

clk::Timestamp LamportMe::view_of(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  // Synthesized j.REQk: a queue entry is direct knowledge of k's request;
  // otherwise the best information is the latest timestamp heard from k.
  if (const auto entry = entry_of(k)) return *entry;
  return last_heard_[k];
}

bool LamportMe::granted(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return clk::lt(req(), last_heard_[k]);
}

clk::Timestamp LamportMe::last_heard(ProcessId k) const {
  GBX_EXPECTS(k < peers());
  return last_heard_[k];
}

void LamportMe::insert_entry(ProcessId k, clk::Timestamp ts) {
  // Modification 1: Insert keeps at most one request per process, so a new
  // request from k replaces (corrects) whatever entry k had.
  remove_entries_of(k);
  queue_.push_back(QueueEntry{k, ts});
  std::sort(queue_.begin(), queue_.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              return clk::lt(a.ts, b.ts);
            });
}

void LamportMe::remove_entries_of(ProcessId k) {
  std::erase_if(queue_, [k](const QueueEntry& e) { return e.pid == k; });
}

void LamportMe::retire_stale_entries(ProcessId k, clk::Timestamp rts) {
  // REQk is monotone and rts = REQk at the message's send time, so any
  // entry of k strictly older than rts cannot be k's current request.
  std::erase_if(queue_, [k, rts](const QueueEntry& e) {
    return e.pid == k && clk::lt(e.ts, rts);
  });
}

void LamportMe::do_request() {
  insert_entry(pid(), req());
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k != pid()) send(k, net::MsgType::kRequest, req());
  }
}

void LamportMe::do_release(clk::Timestamp new_req) {
  remove_entries_of(pid());
  for (ProcessId k = 0; k < peers(); ++k) {
    if (k != pid()) send(k, net::MsgType::kRelease, new_req);
  }
}

void LamportMe::handle(const net::Message& msg) {
  if (msg.from >= peers() || msg.from == pid()) return;  // corrupt origin
  const ProcessId k = msg.from;
  switch (msg.type) {
    case net::MsgType::kRequest:
      // receive-request: record k's request and acknowledge immediately
      // with our current REQ (while thinking that is the fresh clock value,
      // which is above msg.ts because the clock just witnessed it).
      last_heard_[k] = msg.ts;
      insert_entry(k, msg.ts);
      send(k, net::MsgType::kReply, req());
      break;
    case net::MsgType::kReply:
      last_heard_[k] = msg.ts;
      if (!options_.head_only_release) retire_stale_entries(k, msg.ts);
      break;
    case net::MsgType::kRelease:
      last_heard_[k] = msg.ts;
      if (options_.head_only_release) {
        // Ablation A2: the literal dequeue — only the head entry of k is
        // removed. A corrupted entry that never reaches the head (or whose
        // owner never releases) wedges the queue forever.
        if (!queue_.empty() && queue_.front().pid == k)
          queue_.erase(queue_.begin());
      } else {
        retire_stale_entries(k, msg.ts);
      }
      break;
  }
}

void LamportMe::do_corrupt(Rng& rng) {
  corrupt_base(rng);
  for (ProcessId k = 0; k < peers(); ++k) {
    if (rng.chance(0.5)) last_heard_[k] = clk::random_timestamp(rng, peers());
  }
  // Arbitrary queue corruption: drop entries, plant fabricated ones
  // (possibly duplicated pids), scramble order.
  std::erase_if(queue_, [&rng](const QueueEntry&) { return rng.chance(0.5); });
  const std::size_t plant = rng.uniform(0, peers());
  for (std::size_t i = 0; i < plant; ++i) {
    QueueEntry entry;
    entry.pid = static_cast<ProcessId>(rng.index(peers()));
    entry.ts = clk::random_timestamp(rng, peers());
    queue_.push_back(entry);
  }
  for (std::size_t i = queue_.size(); i > 1; --i)
    std::swap(queue_[i - 1], queue_[rng.index(i)]);
}

void LamportMe::fault_set_last_heard(ProcessId k, clk::Timestamp ts) {
  GBX_EXPECTS(k < peers());
  last_heard_[k] = ts;
  mark_observably_changed();
}

void LamportMe::fault_insert_queue_entry(ProcessId k, clk::Timestamp ts) {
  GBX_EXPECTS(k < peers());
  queue_.push_back(QueueEntry{k, ts});
  mark_observably_changed();
}

void LamportMe::fault_clear_queue() {
  queue_.clear();
  mark_observably_changed();
}

}  // namespace graybox::me
