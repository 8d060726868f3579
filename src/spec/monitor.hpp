// Monitor framework: specification conformance as runtime verification.
//
// The paper states specifications in UNITY (Section 3.1); we check them over
// executions by observing the global state after every simulator event and
// feeding each consecutive state pair to a set of monitors. A monitor
// receives:
//
//   begin(t, s0)               - the first observed state,
//   step(t, prev, cur, dirty)  - every subsequent transition, and
//   finish(t, last)            - end of observation, where liveness
//                                obligations still outstanding become
//                                violations.
//
// Monitors are templated on the snapshot type S so the framework is
// independent of TME; src/lspec instantiates S = lspec::GlobalSnapshot.
//
// Delta observation: the simulator mutates (at most) one process per event,
// so the observation pipeline can tell monitors WHICH rows of the state
// changed. `dirty` carries that hint. kDirtyAll promises nothing and is
// every monitor's full check (the copying observe() and the harness's
// reference substrate always pass it); per-process-local monitors use a
// narrower hint to skip the unchanged rows, and monitors that do not index
// rows ignore it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "spec/violation.hpp"

namespace graybox::spec {

/// Out-of-band notification fired on every report()ed violation, carrying
/// the violation time and the monitor's index in its owning MonitorSet.
/// Type-erased (std::function) so the spec layer stays independent of the
/// observability layer that consumes it.
using ViolationHook = std::function<void(SimTime, std::size_t)>;

/// Dirty hints for Monitor::step. Anything else is the index of the single
/// changed process; rows outside the hint are bit-identical between prev
/// and cur.
inline constexpr std::size_t kDirtyAll = static_cast<std::size_t>(-1);
inline constexpr std::size_t kDirtyNone = static_cast<std::size_t>(-2);

/// Call fn(j) for every row of an n-row state that `dirty` may have
/// changed: none, the one named row, or all n.
template <typename Fn>
void for_each_dirty_row(std::size_t dirty, std::size_t n, Fn&& fn) {
  if (dirty == kDirtyNone) return;
  if (dirty != kDirtyAll) {
    fn(dirty);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) fn(j);
}

template <typename S>
class Monitor {
 public:
  explicit Monitor(std::string name) : name_(std::move(name)) {}
  virtual ~Monitor() = default;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  const std::string& name() const { return name_; }

  virtual void begin(SimTime /*t*/, const S& /*s0*/) {}
  /// One transition, with the dirty hint (see kDirtyAll/kDirtyNone above).
  /// Skipping rows outside the hint is sound only for properties that are
  /// per-row local in the rows they *read* as well as the rows they report
  /// on, and must report exactly what the kDirtyAll step would.
  virtual void step(SimTime t, const S& prev, const S& cur,
                    std::size_t dirty) = 0;
  virtual void finish(SimTime /*t*/, const S& /*last*/) {}

  /// Retained violation records (capped at kMaxRetained; counters below
  /// keep exact totals when a long-lived breach floods the monitor).
  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return total_violations_ == 0; }

  /// Exact number of violations observed, retained or not.
  std::uint64_t total_violations() const { return total_violations_; }

  /// Latest violation time; kNever when clean. Exact even past the
  /// retention cap.
  SimTime last_violation() const { return last_violation_; }

  /// Earliest violation time; kNever when clean.
  SimTime first_violation() const { return first_violation_; }

  /// Install the out-of-band violation notification. Normally called by
  /// MonitorSet::set_violation_hook with the monitor's set index; the hook
  /// outlives the monitor via shared ownership.
  void set_violation_hook(std::shared_ptr<ViolationHook> hook,
                          std::size_t index) {
    hook_ = std::move(hook);
    hook_index_ = index;
  }

 protected:
  static constexpr std::size_t kMaxRetained = 256;

  void report(SimTime t, std::string detail) {
    if (total_violations_ == 0 || t < first_violation_) first_violation_ = t;
    if (total_violations_ == 0 || t > last_violation_) last_violation_ = t;
    ++total_violations_;
    if (violations_.size() < kMaxRetained)
      violations_.push_back(Violation{t, name_, std::move(detail)});
    if (hook_ && *hook_) (*hook_)(t, hook_index_);
  }

 private:
  std::string name_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  SimTime first_violation_ = kNever;
  SimTime last_violation_ = kNever;
  std::shared_ptr<ViolationHook> hook_;
  std::size_t hook_index_ = 0;
};

/// Owns a set of monitors and drives them with the begin/step/finish
/// protocol. The harness calls observe_ref() from a scheduler observer;
/// observe() is the copying variant for callers that build states on the
/// stack. Do not mix the two paths on one set.
template <typename S>
class MonitorSet {
 public:
  template <typename M, typename... Args>
  M& add(Args&&... args) {
    auto monitor = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *monitor;
    if (hook_) ref.set_violation_hook(hook_, monitors_.size());
    monitors_.push_back(std::move(monitor));
    return ref;
  }

  /// Install one hook fired by every monitor in the set (present and
  /// future) on each violation, with the monitor's installation index.
  void set_violation_hook(ViolationHook hook) {
    hook_ = std::make_shared<ViolationHook>(std::move(hook));
    for (std::size_t i = 0; i < monitors_.size(); ++i)
      monitors_[i]->set_violation_hook(hook_, i);
  }

  /// Monitor names in installation order (the index space of the hook).
  std::vector<std::string> monitor_names() const {
    std::vector<std::string> names;
    names.reserve(monitors_.size());
    for (const auto& m : monitors_) names.push_back(m->name());
    return names;
  }

  /// Feed the state observed at time t. The first call becomes begin();
  /// later calls step with kDirtyAll. Copies `state` into the set's
  /// previous-state slot.
  void observe(SimTime t, const S& state) {
    if (!started_) {
      for (auto& m : monitors_) m->begin(t, state);
      started_ = true;
    } else {
      for (auto& m : monitors_) m->step(t, previous_, state, kDirtyAll);
    }
    previous_ = state;
    last_ = &previous_;
    observed_ += 1;
  }

  /// Zero-copy observation: `state` must outlive the next observe_ref /
  /// finish call (the snapshot source's double buffer guarantees exactly
  /// that). `dirty` is the hint forwarded to Monitor::step.
  void observe_ref(SimTime t, const S& state, std::size_t dirty) {
    if (!started_) {
      for (auto& m : monitors_) m->begin(t, state);
      started_ = true;
    } else {
      for (auto& m : monitors_) m->step(t, *last_, state, dirty);
    }
    last_ = &state;
    observed_ += 1;
  }

  /// Close observation; liveness monitors flush outstanding obligations.
  void finish(SimTime t) {
    if (!started_ || finished_) return;
    for (auto& m : monitors_) m->finish(t, *last_);
    finished_ = true;
  }

  std::size_t size() const { return monitors_.size(); }
  bool empty() const { return monitors_.empty(); }
  std::uint64_t observed_states() const { return observed_; }

  const std::vector<std::unique_ptr<Monitor<S>>>& monitors() const {
    return monitors_;
  }

  /// All retained violations across monitors, unsorted.
  std::vector<Violation> all_violations() const {
    std::vector<Violation> all;
    std::size_t retained = 0;
    for (const auto& m : monitors_) retained += m->violations().size();
    all.reserve(retained);
    for (const auto& m : monitors_)
      all.insert(all.end(), m->violations().begin(), m->violations().end());
    return all;
  }

  /// Exact total violations across monitors.
  std::uint64_t total_violations() const {
    std::uint64_t total = 0;
    for (const auto& m : monitors_) total += m->total_violations();
    return total;
  }

  /// Latest violation time across all monitors; kNever when fully clean.
  /// Exact even past each monitor's retention cap.
  SimTime last_violation() const {
    SimTime last = kNever;
    for (const auto& m : monitors_) {
      const SimTime t = m->last_violation();
      if (t == kNever) continue;
      if (last == kNever || t > last) last = t;
    }
    return last;
  }

  bool clean() const {
    for (const auto& m : monitors_)
      if (!m->clean()) return false;
    return true;
  }

 private:
  std::vector<std::unique_ptr<Monitor<S>>> monitors_;
  std::shared_ptr<ViolationHook> hook_;
  S previous_{};
  const S* last_ = nullptr;
  bool started_ = false;
  bool finished_ = false;
  std::uint64_t observed_ = 0;
};

}  // namespace graybox::spec
