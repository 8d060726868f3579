#include "obs/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "obs/event_bus.hpp"

namespace graybox::obs {

namespace {

std::string time_or_never(SimTime t) {
  return t == kNever ? std::string("never") : std::to_string(t);
}

report::Json entry_to_json(const TimelineEntry& e) {
  report::Json cell = report::Json::object();
  cell["count"] = e.count;
  cell["first"] = e.first == kNever ? report::Json() : report::Json(e.first);
  cell["last"] = e.last == kNever ? report::Json() : report::Json(e.last);
  return cell;
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

report::Json StabilizationTimeline::to_json() const {
  report::Json doc = report::Json::object();
  doc["run_end"] = run_end;

  report::Json burst = report::Json::object();
  burst["count"] = faults_injected;
  burst["first"] =
      first_fault == kNever ? report::Json() : report::Json(first_fault);
  burst["last"] =
      last_fault == kNever ? report::Json() : report::Json(last_fault);
  report::Json by_kind = report::Json::object();
  for (const TimelineEntry& f : faults) by_kind[f.name] = entry_to_json(f);
  burst["by_kind"] = std::move(by_kind);
  doc["fault_burst"] = std::move(burst);

  report::Json viol = report::Json::object();
  viol["count"] = violations_total;
  viol["first"] = first_violation == kNever ? report::Json()
                                            : report::Json(first_violation);
  viol["last"] = last_violation == kNever ? report::Json()
                                          : report::Json(last_violation);
  report::Json by_clause = report::Json::object();
  for (const TimelineEntry& c : clauses) by_clause[c.name] = entry_to_json(c);
  viol["by_clause"] = std::move(by_clause);
  doc["violations"] = std::move(viol);

  doc["divergent_window"] = divergent_window();
  doc["last_activity"] =
      last_activity == kNever ? report::Json() : report::Json(last_activity);
  doc["quiescent"] = quiescent;
  doc["stabilized"] = stabilized();
  return doc;
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
