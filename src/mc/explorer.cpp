#include "mc/explorer.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"
#include "core/stabilization.hpp"
#include "net/channel.hpp"
#include "obs/causal_dag.hpp"

namespace graybox::mc {

namespace {

/// Only branch at the first kBranchWindow choice points of a run — the
/// bug-relevant perturbations live early (request alignment, fault races);
/// late points mostly reorder the drain. Points past the window still
/// replay their recorded choices.
constexpr std::size_t kBranchWindow = 400;
/// Cap on menu entries recorded per grid position.
constexpr std::size_t kMaxFaultsPerPosition = 12;
/// Executed events from a placed crash / partition to its recovery / heal.
constexpr std::uint64_t kLifecycleGapEvents = 150;

/// FNV-1a over 64-bit words: the outcome digest is a pure function of the
/// deterministic run facts, so replays and cross---jobs reruns agree.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// Replays a trace's choice vector at successive choice points and, when
/// recording, snapshots every point's live tag set for DFS extension.
class ScriptedHook : public sim::ChoiceHook {
 public:
  ScriptedHook(const std::vector<std::uint32_t>& choices,
               std::vector<std::vector<std::uint64_t>>* record)
      : choices_(choices), record_(record) {}

  std::size_t choose(SimTime /*now*/, const std::uint64_t* tags,
                     std::size_t count) override {
    const std::size_t i = next_++;
    if (record_ != nullptr)
      record_->emplace_back(tags, tags + count);
    if (i >= choices_.size()) return 0;
    // Clamp: a shrunk/replayed trace may meet a smaller tie than the one
    // it was recorded against; degrading to the last live index keeps the
    // replay total instead of tripping the scheduler contract.
    return std::min<std::size_t>(choices_[i], count - 1);
  }

  std::size_t points_met() const { return next_; }

 private:
  const std::vector<std::uint32_t>& choices_;
  std::vector<std::vector<std::uint64_t>>* record_;
  std::size_t next_ = 0;
};

/// Two same-tick events commute when reordering them cannot change any
/// process's observation: both are deliveries and their directed channels
/// either coincide (FIFO pops the same head regardless of tick order) or
/// touch four pairwise distinct endpooints. Untagged events (timers,
/// polls, client decisions) are always treated as dependent.
bool commutes(std::uint64_t x, std::uint64_t y) {
  if (!net::is_delivery_tag(x) || !net::is_delivery_tag(y)) return false;
  if (x == y) return true;
  const ProcessId xf = net::delivery_tag_from(x);
  const ProcessId xt = net::delivery_tag_to(x);
  const ProcessId yf = net::delivery_tag_from(y);
  const ProcessId yt = net::delivery_tag_to(y);
  return xf != yf && xf != yt && xt != yf && xt != yt;
}

std::uint32_t nonzero_choices(const std::vector<std::uint32_t>& choices) {
  std::uint32_t n = 0;
  for (std::uint32_t c : choices)
    if (c != 0) ++n;
  return n;
}

}  // namespace

Explorer::Explorer(ExplorerConfig config) : config_(std::move(config)) {
  GBX_EXPECTS(config_.fault_stride > 0);
  GBX_EXPECTS(config_.budget > 0);
}

void Explorer::record_fault_menu(core::SystemHarness& h, std::uint64_t ec,
                                 const ScheduleTrace& trace, Recording& rec) {
  if (config_.fault_budget == 0) return;
  // Extension discipline: faults are placed before any schedule
  // perturbation (children with choices never grow new faults), and only
  // at grid positions strictly after the trace's last placed fault — so
  // every (fault set, choice vector) pair is enumerated exactly once.
  if (!trace.choices.empty()) return;
  if (trace.faults.size() >= config_.fault_budget) return;
  if (ec >= config_.fault_window || ec % config_.fault_stride != 0) return;
  if (!trace.faults.empty() && ec <= trace.faults.back().at_event) return;

  std::vector<net::TargetedFault> menu;
  net::Network& net = h.network();
  const std::size_t n = net.size();
  const std::size_t cap = kMaxFaultsPerPosition;
  for (ProcessId from = 0; from < n && menu.size() < cap; ++from) {
    for (ProcessId to = 0; to < n && menu.size() < cap; ++to) {
      if (from == to) continue;
      const net::Channel& ch = net.channel(from, to);
      if (ch.empty()) continue;
      const auto kinds = {net::FaultKind::kMessageDrop,
                          net::FaultKind::kMessageDuplicate,
                          net::FaultKind::kMessageCorrupt,
                          net::FaultKind::kChannelClear};
      for (net::FaultKind kind : kinds) {
        if (!config_.mix.enabled(kind) || menu.size() >= cap) continue;
        net::TargetedFault f;
        f.code = kind;
        f.a = from;
        f.b = to;
        menu.push_back(f);
      }
      if (config_.mix.enabled(net::FaultKind::kMessageReorder) &&
          ch.in_flight() >= 2 && menu.size() < cap) {
        net::TargetedFault f;
        f.code = net::FaultKind::kMessageReorder;
        f.a = from;
        f.b = to;
        f.index = 0;
        f.index2 = 1;
        menu.push_back(f);
      }
      if (config_.mix.enabled(net::FaultKind::kSpuriousMessage) &&
          menu.size() < cap) {
        net::TargetedFault f;
        f.code = net::FaultKind::kSpuriousMessage;
        f.a = from;
        f.b = to;
        menu.push_back(f);
      }
    }
  }
  if (config_.mix.enabled(net::FaultKind::kProcessCorrupt)) {
    for (ProcessId pid = 0; pid < n && menu.size() < cap; ++pid) {
      net::TargetedFault f;
      f.code = net::FaultKind::kProcessCorrupt;
      f.a = pid;
      menu.push_back(f);
    }
  }
  if (config_.explore_lifecycle) {
    for (ProcessId pid = 0; pid < n && menu.size() < cap; ++pid) {
      net::TargetedFault f;
      f.code = net::FaultKind::kProcessCrash;
      f.a = pid;
      menu.push_back(f);
    }
    if (n >= 2 && n <= 64) {
      for (ProcessId pid = 0; pid < n && menu.size() < cap; ++pid) {
        net::TargetedFault f;
        f.code = net::FaultKind::kPartition;
        f.mask = std::uint64_t{1} << pid;
        menu.push_back(f);
      }
    }
  }
  if (!menu.empty()) rec.fault_menus.emplace_back(ec, std::move(menu));
}

Outcome Explorer::drive(core::SystemHarness& h, const ScheduleTrace& trace,
                        Recording* rec) {
  ScriptedHook hook(trace.choices,
                    rec != nullptr ? &record_scratch_ : nullptr);
  record_scratch_.clear();
  h.scheduler().set_choice_hook(&hook);
  h.start();

  std::uint64_t ec = 0;
  std::size_t fi = 0;
  while (ec < config_.max_events) {
    while (fi < trace.faults.size() && trace.faults[fi].at_event <= ec) {
      // A target that no longer exists (shrunk trace, drifted state)
      // degrades to an unrecorded no-op.
      h.faults().inject_targeted(trace.faults[fi].fault);
      ++fi;
    }
    if (rec != nullptr) record_fault_menu(h, ec, trace, *rec);
    if (!h.scheduler().step_until(config_.horizon)) break;
    ++ec;
  }
  if (config_.property == BugProperty::kConvergence)
    h.run_for(config_.settle);
  h.drain(config_.drain_period);
  h.scheduler().set_choice_hook(nullptr);

  if (rec != nullptr) {
    rec->points.reserve(record_scratch_.size());
    for (auto& tags : record_scratch_)
      rec->points.push_back(ChoicePoint{std::move(tags)});
    record_scratch_.clear();
  }

  const core::RunStats s = h.stats();
  const core::StabilizationReport report = h.stabilization_report();
  const lspec::TmeMonitors& tm = h.tme_monitors();

  Outcome out;
  out.executed_events = ec;
  out.end_time = h.scheduler().now();

  const bool starvation = report.starvation;
  const std::uint64_t safety = s.me1_violations + s.me3_violations +
                               s.invariant_violations +
                               s.mutual_belief_violations;
  auto violation_kind = [&]() -> const char* {
    if (s.me1_violations > 0) return "me1";
    if (s.invariant_violations > 0) return "invariant-i";
    if (s.mutual_belief_violations > 0) return "mutual-belief";
    return "me3";
  };
  if (config_.property == BugProperty::kAnySafetyViolation) {
    if (safety > 0) {
      out.bug = true;
      out.kind = violation_kind();
    } else if (starvation) {
      out.bug = true;
      out.kind = "starvation";
    }
  } else {
    if (starvation) {
      out.bug = true;
      out.kind = "starvation";
    } else if (safety > 0 && !report.faults_injected) {
      out.bug = true;
      out.kind = violation_kind();
    } else if (report.last_safety_violation != kNever &&
               report.faults_injected &&
               report.last_safety_violation >
                   report.last_fault + config_.settle) {
      out.bug = true;
      out.kind = "post-settle-violation";
    }
  }

  std::ostringstream detail;
  detail << "me1=" << s.me1_violations << " me3=" << s.me3_violations
         << " inv=" << s.invariant_violations
         << " mb=" << s.mutual_belief_violations
         << " starvation=" << (starvation ? 1 : 0)
         << " last_fault=" << report.last_fault
         << " last_violation=" << report.last_safety_violation;
  out.detail = detail.str();

  Fnv digest;
  digest.add(ec);
  digest.add(out.end_time);
  digest.add(s.cs_entries);
  digest.add(s.requests_issued);
  digest.add(s.messages_sent);
  digest.add(s.me1_violations);
  digest.add(s.me3_violations);
  digest.add(s.invariant_violations);
  digest.add(s.mutual_belief_violations);
  digest.add(s.faults_injected);
  digest.add(starvation ? 1 : 0);
  digest.add(report.last_safety_violation);
  digest.add(tm.me2 != nullptr ? tm.me2->served() : 0);
  out.digest = digest.h;
  return out;
}

Outcome Explorer::execute(const ScheduleTrace& trace) {
  core::HarnessConfig cfg = config_.harness;
  cfg.seed = trace.seed;
  core::SystemHarness h(cfg);
  return drive(h, trace, nullptr);
}

ExplorerResult Explorer::run() {
  ExplorerResult result;
  std::vector<ScheduleTrace> stack;
  ScheduleTrace root;
  root.seed = config_.harness.seed;
  stack.push_back(root);

  while (!stack.empty() && stats_.executions < config_.budget) {
    ScheduleTrace trace = std::move(stack.back());
    stack.pop_back();

    Recording rec;
    core::HarnessConfig cfg = config_.harness;
    cfg.seed = trace.seed;
    core::SystemHarness h(cfg);
    const Outcome outcome = drive(h, trace, &rec);
    ++stats_.executions;
    stats_.choice_points += rec.points.size();

    if (outcome.bug) {
      result.found = true;
      result.original = trace;
      result.counterexample = shrink(trace);
      result.outcome = execute(result.counterexample);
      result.stats = stats_;
      return result;
    }

    push_choice_children(trace, rec, stack);
    // Fault extensions are pushed after the choice extensions so the DFS
    // pops them first: placements are the primary lever against fault
    // bugs, and each placement's own schedule perturbations follow from
    // its choice-point recording.
    for (const auto& [pos, menu] : rec.fault_menus) {
      for (const net::TargetedFault& f : menu) {
        ScheduleTrace child = trace;
        child.faults.push_back(FaultAt{pos, f});
        if (f.code == net::FaultKind::kProcessCrash) {
          net::TargetedFault heal = f;
          heal.code = net::FaultKind::kProcessRecover;
          child.faults.push_back(
              FaultAt{pos + kLifecycleGapEvents, heal});
        } else if (f.code == net::FaultKind::kPartition) {
          net::TargetedFault heal = f;
          heal.code = net::FaultKind::kPartitionHeal;
          child.faults.push_back(
              FaultAt{pos + kLifecycleGapEvents, heal});
        }
        ++stats_.faults_placed;
        stack.push_back(std::move(child));
      }
    }
  }

  result.stats = stats_;
  return result;
}

void Explorer::push_choice_children(const ScheduleTrace& trace,
                                    const Recording& rec,
                                    std::vector<ScheduleTrace>& stack) {
  // Children are pushed latest-point-first so the DFS stack pops the
  // EARLIEST new choice point next: perturbations near the start of the
  // run (request alignment, fault races) are explored before tail
  // reorderings that mostly shuffle the drain.
  const std::size_t fixed = trace.choices.size();
  const std::uint32_t delays = nonzero_choices(trace.choices);
  const std::size_t last = std::min(rec.points.size(), kBranchWindow);
  for (std::size_t j = last; j-- > fixed;) {
    const std::vector<std::uint64_t>& tags = rec.points[j].tags;
    if (delays + 1 > config_.delay_budget) {
      stats_.pruned_delay += tags.size() - 1;
      continue;
    }
    for (std::size_t a = tags.size(); a-- > 1;) {
      ++stats_.alternatives;
      // Sleep-set-lite: taking event `a` first displaces events 0..a-1;
      // if it commutes with all of them the reordered run revisits a
      // state the default branch already covers.
      bool all_commute = true;
      for (std::size_t d = 0; d < a && all_commute; ++d)
        all_commute = commutes(tags[a], tags[d]);
      if (all_commute) {
        ++stats_.pruned_sleep;
        continue;
      }
      ScheduleTrace child = trace;
      child.choices.resize(j, 0);
      child.choices.push_back(static_cast<std::uint32_t>(a));
      stack.push_back(std::move(child));
    }
  }
}

ScheduleTrace Explorer::shrink(ScheduleTrace trace) {
  trace.normalize();
  auto fails = [&](const ScheduleTrace& candidate) {
    ++stats_.shrink_executions;
    return execute(candidate).bug;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    // Drop placed faults one at a time.
    for (std::size_t i = 0; i < trace.faults.size();) {
      ScheduleTrace c = trace;
      c.faults.erase(c.faults.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(c)) {
        trace = std::move(c);
        changed = true;
      } else {
        ++i;
      }
    }
    // Truncate the choice vector: halve while it keeps failing, then trim
    // one entry at a time.
    while (trace.choices.size() > 1) {
      ScheduleTrace c = trace;
      c.choices.resize(trace.choices.size() / 2);
      c.normalize();
      if (c.choices.size() < trace.choices.size() && fails(c)) {
        trace = std::move(c);
        changed = true;
      } else {
        break;
      }
    }
    while (!trace.choices.empty()) {
      ScheduleTrace c = trace;
      c.choices.pop_back();
      c.normalize();
      if (fails(c)) {
        trace = std::move(c);
        changed = true;
      } else {
        break;
      }
    }
    // Zero the remaining non-default choices.
    for (std::size_t i = 0; i < trace.choices.size(); ++i) {
      if (trace.choices[i] == 0) continue;
      ScheduleTrace c = trace;
      c.choices[i] = 0;
      c.normalize();
      if (fails(c)) {
        trace = std::move(c);
        changed = true;
        break;  // indices shifted; restart the pass
      }
    }
    trace.normalize();
  }
  return trace;
}

std::string Explorer::explain(const ScheduleTrace& trace) {
  core::HarnessConfig cfg = config_.harness;
  cfg.seed = trace.seed;
  cfg.trace_capacity = std::max<std::size_t>(cfg.trace_capacity, 8192);
  cfg.provenance = true;
  core::SystemHarness h(cfg);
  const Outcome outcome = drive(h, trace, nullptr);

  std::ostringstream out;
  out << "counterexample (" << trace.steps() << " steps, "
      << (outcome.bug ? outcome.kind : std::string("no-bug")) << ")\n";
  out << trace.to_text();
  out << "outcome: " << outcome.detail << "\n";

  const obs::EventBus& bus = h.events();
  std::size_t violation_idx = bus.size();
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (bus.event(i).kind == obs::EventKind::kMonitorViolation) {
      violation_idx = i;
      break;
    }
  }
  if (violation_idx < bus.size()) {
    const std::vector<std::size_t> chain = obs::why(bus, violation_idx);
    if (!chain.empty()) {
      out << "causal chain (injection -> first violation):\n";
      for (std::size_t idx : chain) {
        const obs::Event& e = bus.event(idx);
        out << "  [" << e.time << "] " << bus.render(e) << "\n";
      }
    } else {
      // No fault injection to root the chain at (a schedule-only
      // counterexample): show the event window leading into the violation.
      out << "events leading to the first violation:\n";
      const std::size_t first =
          violation_idx >= 12 ? violation_idx - 12 : 0;
      for (std::size_t idx = first; idx <= violation_idx; ++idx) {
        const obs::Event& e = bus.event(idx);
        out << "  [" << e.time << "] " << bus.render(e) << "\n";
      }
    }
  }
  if (h.provenance() != nullptr && !h.provenance()->blast().empty()) {
    out << "blast radius:\n";
    for (const obs::BlastRadius& b : h.provenance()->blast()) {
      out << "  id=" << b.id << " code="
          << net::to_string(static_cast<net::FaultKind>(b.code))
          << " at=" << b.injected_at
          << " processes=" << b.processes_tainted
          << " messages=" << b.messages_tainted
          << " violations=" << b.violations_attributed
          << " containment=" << b.containment() << "\n";
    }
  }
  return out.str();
}

}  // namespace graybox::mc
