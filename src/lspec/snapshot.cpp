#include "lspec/snapshot.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::lspec {

void GlobalSnapshot::resize(std::size_t n) {
  procs.assign(n, ProcessSnapshot{});
  knows_.assign(n * n, 0);
  vc_.assign(n * n, 0);
  counts_valid_ = false;
  eating_count_ = 0;
  hungry_count_ = 0;
  knows_true_.clear();
}

void GlobalSnapshot::set_knows_earlier(std::size_t j, std::size_t k,
                                       bool value) {
  GBX_EXPECTS(j < procs.size() && k < procs.size());
  char& cell = knows_[j * procs.size() + k];
  const char next = value ? 1 : 0;
  if (counts_valid_ && next != cell)
    knows_true_[j] = static_cast<std::uint16_t>(knows_true_[j] + next -
                                                cell);
  cell = next;
}

void GlobalSnapshot::set_vc(std::size_t j, const clk::VectorClock& vc) {
  GBX_EXPECTS(j < procs.size());
  GBX_EXPECTS(vc.size() == procs.size());
  const auto& components = vc.components();
  std::copy(components.begin(), components.end(),
            vc_.data() + j * procs.size());
}

std::size_t GlobalSnapshot::eating_count() const {
  if (counts_valid_) return eating_count_;
  std::size_t count = 0;
  for (const auto& p : procs)
    if (p.eating()) ++count;
  return count;
}

std::size_t GlobalSnapshot::hungry_count() const {
  if (counts_valid_) return hungry_count_;
  std::size_t count = 0;
  for (const auto& p : procs)
    if (p.hungry()) ++count;
  return count;
}

bool GlobalSnapshot::knows_all_earlier(std::size_t j) const {
  if (counts_valid_)
    return static_cast<std::size_t>(knows_true_[j]) + 1 == procs.size();
  for (std::size_t k = 0; k < procs.size(); ++k) {
    if (k != j && !knows_earlier(j, k)) return false;
  }
  return true;
}

void GlobalSnapshot::enable_counts() {
  const std::size_t n = procs.size();
  eating_count_ = 0;
  hungry_count_ = 0;
  knows_true_.assign(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    if (procs[j].eating()) ++eating_count_;
    if (procs[j].hungry()) ++hungry_count_;
    std::uint16_t row = 0;
    for (std::size_t k = 0; k < n; ++k)
      if (knows_earlier(j, k)) ++row;
    knows_true_[j] = row;
  }
  counts_valid_ = true;
}

void GlobalSnapshot::copy_rows(const GlobalSnapshot& from,
                               std::span<const ProcessId> rows) {
  GBX_EXPECTS(counts_valid_ && from.counts_valid_);
  GBX_EXPECTS(from.size() == size());
  const std::size_t n = procs.size();
  time = from.time;
  in_flight = from.in_flight;
  eating_count_ = from.eating_count_;
  hungry_count_ = from.hungry_count_;
  for (const ProcessId j : rows) {
    procs[j] = from.procs[j];
    knows_true_[j] = from.knows_true_[j];
    std::copy_n(from.knows_.data() + j * n, n, knows_.data() + j * n);
    std::copy_n(from.vc_.data() + j * n, n, vc_.data() + j * n);
  }
}

SnapshotSource::SnapshotSource(std::vector<me::TmeProcess*> processes,
                               net::Network& net)
    : processes_(std::move(processes)), net_(net) {
  GBX_EXPECTS(!processes_.empty());
  GBX_EXPECTS(processes_.size() == net_.size());
  for (const auto* p : processes_) GBX_EXPECTS(p != nullptr);
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) net_.touch(pid);
}

void SnapshotSource::write_row(GlobalSnapshot& snap, std::size_t j) const {
  const me::TmeProcess& p = *processes_[j];
  ProcessSnapshot& ps = snap.procs[j];
  const me::TmeState next_state = p.state();
  if (snap.counts_valid_ && next_state != ps.state) {
    snap.eating_count_ += static_cast<std::size_t>(next_state ==
                                                   me::TmeState::kEating) -
                          static_cast<std::size_t>(ps.eating());
    snap.hungry_count_ += static_cast<std::size_t>(next_state ==
                                                   me::TmeState::kHungry) -
                          static_cast<std::size_t>(ps.hungry());
  }
  ps.state = next_state;
  ps.req = p.req();
  ps.clock_now = p.clock().now();
  snap.set_vc(j, net_.vclock(static_cast<ProcessId>(j)));
  const std::size_t n = processes_.size();
  const std::size_t row_true =
      p.fill_knows_row({snap.knows_.data() + j * n, n});
  if (snap.counts_valid_)
    snap.knows_true_[j] = static_cast<std::uint16_t>(row_true);
}

const GlobalSnapshot& SnapshotSource::capture(SimTime t) {
  if (cur_.size() == 0) {
    const std::size_t n = processes_.size();
    prev_.resize(n);
    prev_.enable_counts();
    cur_.resize(n);
    cur_.enable_counts();
  }
  // previous() becomes the last capture: it differs from current() only in
  // the rows that capture re-read.
  prev_.copy_rows(cur_, reread_);
  // current() becomes the live state: it differs from the last capture
  // only in the touched rows.
  net_.take_touched(reread_);
  for (const ProcessId j : reread_) write_row(cur_, j);
  cur_.time = t;
  cur_.in_flight = net_.in_flight();

  if (reread_.empty()) {
    last_dirty_ = spec::kDirtyNone;
  } else if (reread_.size() == 1) {
    last_dirty_ = reread_.front();
  } else {
    last_dirty_ = spec::kDirtyAll;
  }
  return cur_;
}

GlobalSnapshot SnapshotSource::capture_full(SimTime t) const {
  GlobalSnapshot snap;
  snap.resize(processes_.size());
  snap.time = t;
  snap.in_flight = net_.in_flight();
  for (std::size_t j = 0; j < processes_.size(); ++j) write_row(snap, j);
  return snap;
}

}  // namespace graybox::lspec
