#include "obs/provenance.hpp"

namespace graybox::obs {

ProvenanceTracker::ProvenanceTracker(std::size_t n)
    : process_taint_(n), words_per_id_((n + 63) / 64) {}

ProvenanceId ProvenanceTracker::mint(std::uint8_t code, ProcessId origin,
                                     SimTime now) {
  BlastRadius b;
  b.id = static_cast<ProvenanceId>(blast_.size() + 1);
  b.code = code;
  b.origin = origin;
  b.injected_at = now;
  blast_.push_back(b);
  reached_.resize(reached_.size() + words_per_id_, 0);
  return b.id;
}

void ProvenanceTracker::taint_process(ProcessId pid, ProvenanceId id) {
  if (pid >= process_taint_.size() || id == kNoProvenance ||
      id > blast_.size()) {
    return;
  }
  TaintSet& t = process_taint_[pid];
  const std::uint8_t dropped_before = t.dropped;
  if (t.add(id)) {
    // Count distinct processes ever tainted, not re-infections: a process
    // that is corrected and then tainted again by the same fault's still-
    // circulating messages widens nothing.
    std::uint64_t& word = reached_[(id - 1) * words_per_id_ + pid / 64];
    const std::uint64_t bit = std::uint64_t{1} << (pid % 64);
    if ((word & bit) == 0) ++blast_[id - 1].processes_tainted;
    word |= bit;
    union_valid_ = false;
  } else if (t.dropped != dropped_before) {
    // Keep-oldest saturation just discarded this (newer) id: the run-wide
    // counter makes the resulting under-attribution observable.
    ++taint_overflows_;
    union_valid_ = false;
  }
}

void ProvenanceTracker::merge_process(ProcessId pid, const TaintSet& taint) {
  if (pid >= process_taint_.size()) return;
  for (std::size_t i = 0; i < taint.size(); ++i) taint_process(pid, taint[i]);
  TaintSet& t = process_taint_[pid];
  const std::uint8_t dropped_before = t.dropped;
  t.note_dropped(taint.dropped);
  if (t.dropped != dropped_before) union_valid_ = false;
}

void ProvenanceTracker::clear_process(ProcessId pid) {
  if (pid >= process_taint_.size()) return;
  TaintSet& t = process_taint_[pid];
  if (t.empty() && t.dropped == 0) return;
  t.clear();
  union_valid_ = false;
}

void ProvenanceTracker::note_message_taint(const TaintSet& taint) {
  for (std::size_t i = 0; i < taint.size(); ++i) {
    const ProvenanceId id = taint[i];
    if (id != kNoProvenance && id <= blast_.size()) {
      ++blast_[id - 1].messages_tainted;
    }
  }
}

TaintSet ProvenanceTracker::attribute_violation(SimTime now) {
  if (!union_valid_) {
    // The fold in ascending pid order: keep-oldest saturation makes the
    // merge order observable in the union's ids and its drop count.
    union_ = TaintSet{};
    for (const TaintSet& t : process_taint_) union_.merge(t);
    union_valid_ = true;
  }
  TaintSet out = union_;
  // After the cache: minting moves the fallback without touching any set.
  if (out.empty() && !blast_.empty()) {
    out.add(static_cast<ProvenanceId>(blast_.size()));
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    BlastRadius& b = blast_[out[i] - 1];
    ++b.violations_attributed;
    b.last_violation = now;
  }
  return out;
}

}  // namespace graybox::obs
