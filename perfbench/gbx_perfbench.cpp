// gbx_perfbench: the repository benchmark's measuring program.
//
// It reads a generated list of operations (one per line, space-separated
// key=value pairs; perfbench/run.py writes them from a workload seed) and
// runs them single-threaded against the public core::SystemHarness and
// mc::Explorer API, in complete rounds until --seconds have passed. Every
// harness run and explorer cell prints one JSON line with its simulated
// facts (deterministic per seed) and its host times (volatile); the last
// line holds the set-up samples and the peak RSS. run.py checks the facts
// against the oracles and aggregates the metrics.
//
//   gbx_perfbench --ops FILE --seconds S --trace 0|1
//
// Operation kinds:
//   kind=trial  one harness run: warmup, optional fault burst, observation,
//               drain (the core/experiment.hpp fault-recovery shape).
//   kind=mc     one explorer cell: Explorer::run over the cell, then, for
//               each of its replay seeds, the root schedule twice — through
//               Explorer::execute (its outcome digest) and as a plain harness
//               run that must reproduce that digest (skipped for mutant
//               cells, expect=bug).
//
// With --trace 0 each trial runs once, as the experiment engine runs it
// (provenance and metrics on, event bus off), timed from after start() to
// the end of drain(). With --trace 1 each trial runs as four same-seed
// variants: "base" (the untraced run), "traced" (spans around every public
// call plus the event bus), "no-provenance" and "no-metrics". The toggles
// are documented as passive, so all four must agree on every simulated fact.
//
// Before each round's first operation, after every operation and before
// every set-up pass it also times probe_s(), a fixed reference workload;
// run.py scales every host time by it to the reference host's speed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory_resource>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "mc/explorer.hpp"
#include "mc/mutants.hpp"

namespace {

using namespace graybox;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "gbx_perfbench: %s\n", why.c_str());
  std::exit(2);
}

/// One operation line: key=value pairs.
class Spec {
 public:
  explicit Spec(const std::string& line) {
    std::istringstream in(line);
    std::string token;
    while (in >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) die("malformed token '" + token + "'");
      fields_[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  bool has(const std::string& key) const { return fields_.count(key) != 0; }
  const std::string& str(const std::string& key) const {
    const auto it = fields_.find(key);
    if (it == fields_.end()) die("operation lacks '" + key + "'");
    return it->second;
  }
  std::uint64_t u(const std::string& key) const {
    return std::strtoull(str(key).c_str(), nullptr, 10);
  }
  std::uint64_t u(const std::string& key, std::uint64_t dflt) const {
    return has(key) ? u(key) : dflt;
  }
  double d(const std::string& key, double dflt) const {
    return has(key) ? std::strtod(str(key).c_str(), nullptr) : dflt;
  }
  bool b(const std::string& key) const { return u(key, 0) != 0; }

 private:
  std::map<std::string, std::string> fields_;
};

/// Minimal JSON object writer (flat keys, numbers, strings, number arrays).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& arr(const std::string& key, const std::vector<std::uint64_t>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? "," : "") + std::to_string(v[i]);
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

core::HarnessConfig harness_config(const Spec& s) {
  core::HarnessConfig c;
  c.n = s.u("n");
  c.algorithm = s.str("algo");
  c.wrapped = s.b("wrapped");
  c.level1 = s.b("level1");
  c.client.think_mean = s.d("think", c.client.think_mean);
  c.client.eat_mean = s.d("eat", c.client.eat_mean);
  c.wrapper.resend_period = s.u("resend", c.wrapper.resend_period);
  c.seed = s.u("seed");
  net::FaultProcessConfig& fp = c.fault_process;
  fp.drop_mean = s.d("fp_drop", 0);
  fp.duplicate_mean = s.d("fp_duplicate", 0);
  fp.corrupt_mean = s.d("fp_corrupt", 0);
  fp.spurious_mean = s.d("fp_spurious", 0);
  fp.process_corrupt_mean = s.d("fp_process_corrupt", 0);
  fp.channel_clear_mean = s.d("fp_channel_clear", 0);
  fp.crash_mean = s.d("fp_crash", 0);
  fp.downtime_mean = s.d("fp_downtime", fp.downtime_mean);
  fp.partition_mean = s.d("fp_partition", 0);
  fp.partition_hold_mean = s.d("fp_partition_hold", fp.partition_hold_mean);
  fp.start = s.u("fp_start", fp.start);
  fp.end = s.u("fp_end", fp.end);
  return c;
}

enum class Variant { kBase, kTraced, kNoProvenance, kNoMetrics };

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kBase: return "base";
    case Variant::kTraced: return "traced";
    case Variant::kNoProvenance: return "no-provenance";
    case Variant::kNoMetrics: return "no-metrics";
  }
  return "?";
}

/// The experiment engine's per-trial observability, adjusted per variant.
void apply_variant(core::HarnessConfig& c, Variant v) {
  c.provenance = v != Variant::kNoProvenance;
  c.collect_metrics = v != Variant::kNoMetrics;
  c.trace_capacity = v == Variant::kTraced ? 4096 : 0;
}

/// How a harness run is driven between start() and drain().
struct Plan {
  // Fault-recovery shape (kind=trial).
  SimTime warmup = 0;
  std::size_t burst = 0;
  SimTime observation = 0;
  // Explorer root-schedule shape (kind=mc): step to the horizon one event at
  // a time, as mc::Explorer drives a trace with no non-default choice.
  bool explorer_root = false;
  SimTime horizon = 0;
  std::uint64_t max_events = 0;
  SimTime settle = 0;
  SimTime drain = 0;
};

/// FNV-1a over 64-bit words; mc::Outcome::digest folds the same run facts.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

Json histogram(const obs::MetricsSnapshot& metrics, const std::string& name) {
  Json j;
  for (const obs::MetricSample& m : metrics) {
    if (m.name != name) continue;
    j.arr("bounds", m.bounds).arr("buckets", m.buckets);
  }
  return j;
}

/// Run one harness and return its JSON record.
Json run_harness(core::HarnessConfig cfg, const Plan& plan, Variant variant,
                 std::uint64_t* digest_out) {
  apply_variant(cfg, variant);
  // t0..t7 bound the spans around each public call the run makes.
  const auto t0 = Clock::now();
  core::SystemHarness h(cfg);
  const auto t1 = Clock::now();
  h.start();
  const auto t2 = Clock::now();
  auto t3 = t2, t4 = t2, t5 = t2;
  std::uint64_t stepped = 0;
  if (plan.explorer_root) {
    while (stepped < plan.max_events && h.scheduler().step_until(plan.horizon))
      ++stepped;
    t3 = t4 = Clock::now();
    if (plan.settle > 0) h.run_for(plan.settle);
    t5 = Clock::now();
  } else {
    h.run_for(plan.warmup);
    t3 = Clock::now();
    if (plan.burst > 0) h.faults().burst(plan.burst, net::FaultMix::all());
    t4 = Clock::now();
    h.run_for(plan.observation);
    t5 = Clock::now();
  }
  h.drain(plan.drain);
  const auto t6 = Clock::now();
  const core::StabilizationReport report = h.stabilization_report();
  const core::RunStats s = h.stats();
  const auto t7 = Clock::now();

  std::uint64_t resends = 0, evaluations = 0;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (const wrapper::GrayboxWrapper* w = h.wrapper(pid)) {
      resends += w->resends();
      evaluations += w->evaluations();
    }
  }
  const std::uint64_t safety = s.me1_violations + s.me3_violations +
                               s.invariant_violations +
                               s.mutual_belief_violations;
  Json facts;
  facts.num("events", s.events_executed)
      .num("end_time", static_cast<std::uint64_t>(h.scheduler().now()))
      .num("messages", s.messages_sent)
      .num("wrapper_messages", s.wrapper_messages)
      .num("sent_request", s.sent_request)
      .num("sent_reply", s.sent_reply)
      .num("sent_release", s.sent_release)
      .num("cs_entries", s.cs_entries)
      .num("requests_issued", s.requests_issued)
      .num("me2_served", s.me2_served)
      .num("me2_max_wait", static_cast<std::uint64_t>(s.me2_max_wait))
      .num("safety_violations", safety)
      .num("violations_total", report.violations_total)
      .num("clause_violations", s.lspec_clause_violations)
      .num("level1_corrections", s.level1_corrections)
      .num("resends", resends)
      .num("evaluations", evaluations)
      .num("faults_injected", s.faults_injected)
      .num("crashes", s.crashes)
      .num("partitions", s.partitions)
      .num("deliveries_to_crashed", s.deliveries_to_crashed)
      .num("dropped_by_partition", s.dropped_by_partition)
      .num("stabilized", std::uint64_t{report.stabilized})
      .num("starvation", std::uint64_t{report.starvation})
      .num("latency", static_cast<std::uint64_t>(report.latency))
      .num("last_violation",
           static_cast<std::uint64_t>(report.last_safety_violation));

  Json rec;
  rec.str("variant", to_string(variant))
      .num("run_s", seconds_between(t2, t6))
      .num("observe_ns", s.observe_ns)
      .obj("facts", facts);
  if (cfg.provenance) {
    Json prov;
    prov.num("faults_minted", s.provenance_faults)
        .num("processes_tainted", s.processes_tainted)
        .num("messages_tainted", s.messages_tainted)
        .num("violations_attributed", s.violations_attributed)
        .num("containment_ticks", s.containment_ticks)
        .num("taint_overflows", s.taint_overflows);
    rec.obj("provenance", prov);
  }
  if (cfg.collect_metrics) {
    Json hist;
    hist.obj("cs_wait_ticks", histogram(s.metrics, "cs_wait_ticks"))
        .obj("net_in_flight", histogram(s.metrics, "net_in_flight"))
        .obj("channel_queue_depth",
             histogram(s.metrics, "channel_queue_depth"));
    rec.obj("histograms", hist);
  }
  if (variant == Variant::kTraced) {
    Json spans;
    spans.num("ctor", seconds_between(t0, t1))
        .num("start", seconds_between(t1, t2))
        .num("warmup", seconds_between(t2, t3))
        .num("burst", seconds_between(t3, t4))
        .num("observe", seconds_between(t4, t5))
        .num("drain", seconds_between(t5, t6))
        .num("report", seconds_between(t6, t7));
    rec.obj("spans", spans);
    Json bus;
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      bus.num(obs::to_string(kind), h.events().kind_stats(kind).count);
    }
    rec.obj("bus", bus);
  }
  if (digest_out != nullptr) {
    // The facts mc::Explorer folds into Outcome::digest, in its order.
    const lspec::TmeMonitors& tm = h.tme_monitors();
    Fnv f;
    f.add(stepped);
    f.add(h.scheduler().now());
    f.add(s.cs_entries);
    f.add(s.requests_issued);
    f.add(s.messages_sent);
    f.add(s.me1_violations);
    f.add(s.me3_violations);
    f.add(s.invariant_violations);
    f.add(s.mutual_belief_violations);
    f.add(s.faults_injected);
    f.add(report.starvation ? 1 : 0);
    f.add(report.last_safety_violation);
    f.add(tm.me2 != nullptr ? tm.me2->served() : 0);
    *digest_out = f.h;
  }
  return rec;
}

Plan trial_plan(const Spec& s) {
  Plan p;
  p.warmup = s.u("warmup");
  p.burst = s.u("burst", 0);
  p.observation = s.u("observation");
  p.drain = s.u("drain");
  return p;
}

mc::ExplorerConfig explorer_config(const Spec& s) {
  mc::ExplorerConfig ec;
  ec.harness = harness_config(s);
  ec.property = s.str("property") == "convergence"
                    ? mc::BugProperty::kConvergence
                    : mc::BugProperty::kAnySafetyViolation;
  ec.budget = s.u("budget");
  ec.delay_budget = static_cast<std::uint32_t>(s.u("delay_budget", 2));
  ec.fault_budget = static_cast<std::uint32_t>(s.u("fault_budget", 0));
  ec.explore_lifecycle = s.b("lifecycle");
  return ec;
}

/// A comma-separated seed list; `seed` alone when the key is absent.
std::vector<std::uint64_t> seed_list(const Spec& s, const std::string& key) {
  if (!s.has(key)) return {s.u("seed")};
  std::vector<std::uint64_t> seeds;
  std::istringstream in(s.str(key));
  std::string tok;
  while (std::getline(in, tok, ','))
    seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
  return seeds;
}

/// One explorer cell: the explorer record first, then the root-schedule
/// harness runs of every replay seed (one per variant; none for mutant
/// cells).
std::vector<Json> run_mc(const Spec& s, const std::vector<Variant>& variants) {
  mc::ExplorerConfig ec = explorer_config(s);
  mc::ExplorerStats total;
  double run_s = 0;
  bool found = false;
  std::string kind;
  std::uint64_t steps = 0, found_seed = 0;
  // Mutant cells try a short seed list until the explorer finds the bug.
  for (const std::uint64_t seed : seed_list(s, "explore_seeds")) {
    ec.harness.seed = seed;
    mc::Explorer ex(ec);
    const auto t0 = Clock::now();
    const mc::ExplorerResult r = ex.run();
    run_s += seconds_between(t0, Clock::now());
    total.executions += r.stats.executions;
    total.choice_points += r.stats.choice_points;
    total.alternatives += r.stats.alternatives;
    total.pruned_sleep += r.stats.pruned_sleep;
    total.pruned_delay += r.stats.pruned_delay;
    total.faults_placed += r.stats.faults_placed;
    total.shrink_executions += r.stats.shrink_executions;
    if (r.found) {
      found = true;
      kind = r.outcome.kind;
      steps = r.counterexample.steps();
      found_seed = seed;
      break;
    }
  }
  Json stats;
  stats.num("executions", total.executions)
      .num("choice_points", total.choice_points)
      .num("alternatives", total.alternatives)
      .num("pruned_sleep", total.pruned_sleep)
      .num("pruned_delay", total.pruned_delay)
      .num("faults_placed", total.faults_placed)
      .num("shrink_executions", total.shrink_executions);
  Json rec;
  rec.str("variant", "explorer")
      .num("found", std::uint64_t{found})
      .str("bug_kind", kind)
      .num("steps", steps)
      .num("found_seed", found_seed)
      .num("explorer_s", run_s)
      .obj("stats", stats);
  if (s.str("expect") == "bug") return {rec};

  // Each replay seed's root schedule, once through the explorer and once per
  // variant as a plain harness run stepped the way the explorer steps it.
  std::vector<Json> out{rec};
  Plan plan;
  plan.explorer_root = true;
  plan.horizon = ec.horizon;
  plan.max_events = ec.max_events;
  plan.settle = ec.property == mc::BugProperty::kConvergence ? ec.settle : 0;
  plan.drain = ec.drain_period;
  std::uint64_t replay = 0;
  for (const std::uint64_t seed : seed_list(s, "replay_seeds")) {
    ec.harness.seed = seed;
    mc::Explorer ex(ec);
    mc::ScheduleTrace root;
    root.seed = seed;
    const mc::Outcome outcome = ex.execute(root);
    for (const Variant v : variants) {
      std::uint64_t digest = 0;
      Json run = run_harness(ec.harness, plan, v, &digest);
      out.push_back(run.num("replay", replay)
                        .num("root_digest", outcome.digest)
                        .num("root_events", outcome.executed_events)
                        .num("digest", digest));
    }
    ++replay;
  }
  return out;
}

/// A fixed reference workload: a timer heap and a hash table churned the
/// way the simulator churns its own, in an arena of their own so that the
/// program's heap does not move the cost. Nothing under src/ runs here.
std::uint64_t reference_work() {
  static std::vector<std::byte> arena(8u << 20);
  std::pmr::monotonic_buffer_resource upstream(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  using Item = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Item, std::pmr::vector<Item>, std::greater<Item>> heap{
      std::greater<Item>{}, std::pmr::vector<Item>(&pool)};
  std::pmr::unordered_map<std::uint32_t, std::uint64_t> table(&pool);
  std::uint64_t x = 88172645463325252ull, acc = 0;
  for (std::uint32_t i = 0; i < 30000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push({(x & 0xffff) + i, i});
    if (heap.size() > 1024) {
      acc += heap.top().first;
      heap.pop();
    }
    if (x & 1)
      table[static_cast<std::uint32_t>(x & 0xfff)] ^= x;
    else
      table.erase(static_cast<std::uint32_t>(x & 0xfff));
  }
  return acc + table.size();
}

volatile std::uint64_t probe_sink = 0;

/// Host seconds for reference_work() with warm caches: how fast the host
/// runs right now. The shared host's speed wanders by a third over minutes,
/// and every host time the benchmark reports is scaled by this probe. The
/// fastest of three passes, because a pause of the host only adds time.
double probe_s() {
  probe_sink = reference_work();
  double fastest = 1e9;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    probe_sink = reference_work();
    fastest = std::min(fastest, seconds_between(t0, Clock::now()));
  }
  return fastest;
}

/// Construct and start every operation's harness once, appending each
/// construction-plus-start host time to `ns` and the probe time taken just
/// before the pass to `probe_ns` (when given).
void time_setup(const std::vector<Spec>& ops, std::vector<std::uint64_t>* ns,
                std::vector<std::uint64_t>* probe_ns) {
  const double probe = ns != nullptr ? probe_s() : 0;
  for (const Spec& op : ops) {
    core::HarnessConfig cfg = harness_config(op);
    apply_variant(cfg, Variant::kBase);
    const auto t0 = Clock::now();
    core::SystemHarness h(cfg);
    h.start();
    const auto t1 = Clock::now();
    if (ns == nullptr) continue;
    ns->push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    probe_ns->push_back(static_cast<std::uint64_t>(probe * 1e9));
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  std::string ops_path;
  double seconds = 1;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--ops")
      ops_path = value;
    else if (flag == "--seconds")
      seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      trace = value == "1";
    else
      die("unknown flag " + flag);
  }
  std::ifstream in(ops_path);
  if (!in) die("cannot read operations from '" + ops_path + "'");
  std::vector<Spec> ops;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ops.emplace_back(line);
  if (ops.empty()) die("no operations");
  mc::register_mutants();

  // Set-up is timed in passes over every operation's harness: one warm-up
  // pass, five timed passes, then one more at the start of every round, so
  // the samples span the whole run rather than one moment of the host.
  std::vector<std::uint64_t> setup_ns, setup_probe_ns;
  time_setup(ops, nullptr, nullptr);
  for (int pass = 0; pass < 5; ++pass)
    time_setup(ops, &setup_ns, &setup_probe_ns);

  const std::vector<Variant> variants =
      trace ? std::vector<Variant>{Variant::kBase, Variant::kTraced,
                                   Variant::kNoProvenance, Variant::kNoMetrics}
            : std::vector<Variant>{Variant::kBase};
  // Complete rounds only, at least one: every round runs the same
  // operations, so per-round aggregates are comparable across runs.
  const auto begin = Clock::now();
  std::uint64_t round = 0;
  do {
    time_setup(ops, &setup_ns, &setup_probe_ns);
    double before = probe_s();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Spec& op = ops[i];
      std::vector<Json> records;
      if (op.str("kind") == "mc") {
        records = run_mc(op, variants);
      } else {
        for (const Variant v : variants)
          records.push_back(run_harness(harness_config(op), trial_plan(op), v,
                                        nullptr));
      }
      const double after = probe_s();
      for (Json& r : records) {
        r.num("op", std::uint64_t{i})
            .num("round", round)
            .num("probe_s", (before + after) / 2);
        std::printf("%s\n", r.text().c_str());
      }
      before = after;
    }
    ++round;
    std::fflush(stdout);
  } while (seconds_between(begin, Clock::now()) < seconds);
  std::printf("%s\n", Json()
                          .num("rounds", round)
                          .num("measured_s", seconds_between(begin, Clock::now()))
                          .num("peak_rss_mib", peak_rss_mib())
                          .arr("setup_ns", setup_ns)
                          .arr("setup_probe_ns", setup_probe_ns)
                          .text()
                          .c_str());
  return 0;
}
