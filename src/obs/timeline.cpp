#include "obs/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "obs/event_bus.hpp"

namespace graybox::obs {

namespace {

std::string time_or_never(SimTime t) {
  return t == kNever ? std::string("never") : std::to_string(t);
}

}  // namespace

std::string StabilizationTimeline::to_string() const {
  std::ostringstream os;
  os << "stabilization timeline (run_end=" << run_end << ")\n";

  os << "  fault burst:      " << faults_injected << " fault(s)";
  if (faults_injected > 0) {
    os << " over [" << time_or_never(first_fault) << ", "
       << time_or_never(last_fault) << "]";
  }
  os << "\n";
  for (const TimelineEntry& f : faults) {
    if (f.count == 0) continue;
    os << "    " << f.name << ": " << f.count << " @ ["
       << time_or_never(f.first) << ", " << time_or_never(f.last) << "]\n";
  }

  os << "  first violation:  " << time_or_never(first_violation) << "\n";
  os << "  violation decay:  " << violations_total << " violation(s) total\n";
  for (const TimelineEntry& c : clauses) {
    os << "    " << c.name << ": " << c.count;
    if (c.count > 0) {
      os << " @ [" << time_or_never(c.first) << ", " << time_or_never(c.last)
         << "]";
    }
    os << "\n";
  }
  os << "  last violation:   " << time_or_never(last_violation) << "\n";
  os << "  divergent window: " << divergent_window() << " tick(s)\n";
  os << "  quiescence:       last activity @ " << time_or_never(last_activity)
     << (quiescent ? ", quiescent" : ", still active") << "\n";
  return os.str();
}

StabilizationTimeline fold_timeline(
    SimTime run_end, const std::vector<std::string>& fault_names,
    std::span<const KindStats> faults,
    const std::vector<std::string>& monitor_names,
    std::span<const KindStats> clauses,
    std::initializer_list<SimTime> traffic) {
  StabilizationTimeline tl;
  tl.run_end = run_end;
  KindStats burst, violations;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    const KindStats& s = faults[k];
    if (s.count == 0) continue;
    burst.merge(s);
    tl.faults.push_back(
        TimelineEntry{fault_names[k], s.count, s.first, s.last});
  }
  for (std::size_t m = 0; m < clauses.size(); ++m) {
    const KindStats& s = clauses[m];
    violations.merge(s);
    tl.clauses.push_back(
        TimelineEntry{monitor_names[m], s.count, s.first, s.last});
  }
  tl.faults_injected = burst.count;
  tl.first_fault = burst.first;
  tl.last_fault = burst.last;
  tl.violations_total = violations.count;
  tl.first_violation = violations.first;
  tl.last_violation = violations.last;
  KindStats activity;
  for (SimTime t : traffic)
    if (t != kNever) activity.note(t);
  for (SimTime t : {burst.last, violations.last})
    if (t != kNever) activity.note(t);
  tl.last_activity = activity.last;
  return tl;
}

StabilizationTimeline timeline_from_bus(const EventBus& bus) {
  StabilizationTimeline tl = fold_timeline(
      bus.now(), bus.fault_kind_names(), bus.fault_stats(),
      bus.monitor_names(), bus.monitor_stats(),
      {bus.kind_stats(EventKind::kSend).last,
       bus.kind_stats(EventKind::kDeliver).last,
       bus.kind_stats(EventKind::kWrapperCorrection).last,
       bus.kind_stats(EventKind::kLocalCorrection).last});
  tl.quiescent = tl.last_activity == kNever || tl.last_activity < tl.run_end;
  return tl;
}

}  // namespace graybox::obs
