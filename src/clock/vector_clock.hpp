// Vector clocks, used only on the monitoring side.
//
// ME3 (first-come first-serve) is stated over Lamport's happened-before
// relation: "h.j /\ REQj hb REQk implies ts(e.j) < ts(e.k)". Lamport
// timestamps are consistent with hb but cannot *decide* it, so the TME Spec
// monitor tracks causality with vector clocks threaded through simulated
// messages as monitor-only metadata. The mutual-exclusion programs never
// read them — the substrate under test stays exactly the paper's.
//
// Storage: a clock travels by value inside every net::Message, so the
// component array lives inline for systems of up to kInlineComponents
// processes (every committed experiment fits) and only falls back to the
// heap beyond that. Copying a clock copies size() components, not the
// whole inline buffer, and steady-state message traffic allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace graybox::clk {

class VectorClock {
 public:
  /// Systems up to this size keep their component array inline (no heap).
  static constexpr std::size_t kInlineComponents = 32;

  VectorClock() = default;
  /// Clock for `pid` in a system of `n` processes, all components zero.
  VectorClock(ProcessId pid, std::size_t n);

  VectorClock(const VectorClock& other) { copy_from(other); }
  VectorClock& operator=(const VectorClock& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  VectorClock(VectorClock&& other) noexcept { move_from(other); }
  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this != &other) move_from(other);
    return *this;
  }

  /// Advance the owner's component for a local event.
  void tick();

  /// Merge a received clock (componentwise max), then tick.
  void witness(const VectorClock& other);

  /// True iff this clock's event happened-before the other's (strictly:
  /// componentwise <= and at least one strict <).
  bool happened_before(const VectorClock& other) const;

  /// Neither happened-before the other and they differ.
  bool concurrent_with(const VectorClock& other) const;

  std::size_t size() const { return size_; }
  /// Component access on the monitor hot loop: unchecked indexing behind a
  /// contract (the bounds-checked .at() it replaces paid an exception
  /// branch per read in every snapshot row fill).
  std::uint64_t component(std::size_t i) const {
    GBX_EXPECTS(i < size_);
    return data()[i];
  }
  /// Raw component array (monitor-side flattened snapshot rows copy it).
  std::span<const std::uint64_t> components() const { return {data(), size_}; }

  ProcessId owner() const { return pid_; }

  std::string to_string() const;

  friend bool operator==(const VectorClock& a, const VectorClock& b);

 private:
  const std::uint64_t* data() const { return heap_ ? heap_.get() : inline_; }
  std::uint64_t* data() { return heap_ ? heap_.get() : inline_; }
  void copy_from(const VectorClock& other);
  void move_from(VectorClock& other) noexcept;

  std::uint64_t inline_[kInlineComponents];
  /// Heap fallback, engaged only when size_ > kInlineComponents.
  std::unique_ptr<std::uint64_t[]> heap_;
  std::uint32_t size_ = 0;
  ProcessId pid_ = 0;
};

}  // namespace graybox::clk
