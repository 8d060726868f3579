#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads over the public harness.

Run from the repository root:

    python3 perfbench/run.py --workload service_n32 --seed 1 --seconds 24 --trace 0

It builds perfbench/ (a CMake project over ../src) into .bench_build/,
generates the workload's operations from --seed, runs them with the
gbx_perfbench program in complete rounds for --seconds, checks every
operation against its oracle and the pinned facts, and prints each metric by
name with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).

    python3 perfbench/run.py --smoke           # self-test, a few seconds
    python3 perfbench/run.py --pin --workload W --seed S   # record pins
"""
import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "gbx_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PINS = os.path.join(HERE, "pinned_facts.json")
# probe_s, gbx_perfbench's reference workload, on the machine README.md
# describes: every host time is reported as that machine would take it.
PROBE_REF_S = 0.0025

ALGOS = ("ricart-agrawala", "lamport", "carvalho-roucairol")
# Protocol messages per CS entry in a bare fault-free run (E8): exact for
# Ricart-Agrawala and Lamport, an upper bound for Carvalho-Roucairol.
MSGS_PER_ENTRY = {"ricart-agrawala": (2, "=="), "lamport": (3, "=="),
                  "carvalho-roucairol": (2, "<=")}
BUS_KINDS = ("send", "deliver", "drop", "local-step", "cs-enter", "cs-exit",
             "fault-injected", "wrapper-correction", "monitor-violation",
             "local-correction")


# --------------------------------------------------------------------------
# Workloads: operation lists generated from the seed. The seed only draws
# the per-operation harness seeds; sizes, protocols and windows are fixed,
# so every seed measures the same amount of the same kind of work.

def trial(algo, n, seed, **fields):
    return dict(kind="trial", algo=algo, n=n, seed=seed, **fields)


def service_n32(rng, small):
    # Fault-free common case; each protocol runs wrapped and bare on the
    # same seed, which prices the wrapper.
    n = 8 if small else 32
    ops = []
    for algo in ALGOS:
        seed = rng.randrange(1, 1 << 31)
        for wrapped in (1, 0):
            ops.append(trial(algo, n, seed, wrapped=wrapped, think=8 * n,
                             eat=8, resend=20, warmup=500, burst=0,
                             observation=2000 if small else 10000,
                             drain=3000))
    return ops


def recovery_n256(rng, small):
    # The E14 cells (bench_scaling's settings and seed, 1400 + N): one mixed
    # 12-fault burst after warm-up at N=256. The seed places two bursts per
    # protocol within a 64-tick band: where one lands moves the violations a
    # trial attributes by up to 100k, and its host time by up to a third. The
    # seed does not redraw the client schedule, because at N=256 that alone
    # moves a Lamport trial's host time fourfold.
    n = 32 if small else 256
    return [trial(algo, n, 1400 + n, wrapped=1, think=8 * n, eat=8,
                  resend=20, warmup=warmup, burst=12, observation=800,
                  drain=1200)
            for warmup in [400 + rng.randrange(64) for _ in range(2)]
            for algo in ALGOS]


def sustained_load_n32(rng, small):
    # E12 "heavy" streams (scale 0.6) confined to the observation window,
    # both wrapper tiers on. Six seeds per protocol: where one trial's
    # crashes and partitions fall moves its CS entries per event, and its
    # host time per event, by about ±8% from seed to seed.
    n = 8 if small else 32
    warmup, observation, drain = 500, 2000 if small else 6000, 4000
    scale = 0.6
    load = dict(fp_drop=150 * scale, fp_duplicate=400 * scale,
                fp_corrupt=400 * scale, fp_spurious=300 * scale,
                fp_process_corrupt=600 * scale, fp_channel_clear=900 * scale,
                fp_crash=1500 * scale, fp_downtime=150,
                fp_partition=2000 * scale, fp_partition_hold=120,
                fp_start=warmup, fp_end=warmup + observation)
    return [trial(algo, n, rng.randrange(1, 1 << 31), wrapped=1, level1=1,
                  think=8 * n, eat=8, resend=25, warmup=warmup, burst=0,
                  observation=observation, drain=drain, **load)
            for _ in range(1 if small else 6) for algo in ALGOS]


def mc_sweep(rng, small):
    # tools/graybox_mc --sweep's 21 cells, then its three seeded mutants.
    # Each correct cell also replays the root schedules of ten seeds, the
    # first its explorer's: one n=3 root schedule is about a millisecond of
    # host time, and how many CS entries it serves per event varies by ±7%
    # from seed to seed.
    budget = 20 if small else 120
    seeds = [rng.randrange(1, 1 << 31) for _ in range(3 if small else 10)]
    replay_seeds = ",".join(map(str, seeds))
    ops = []
    for algo in ALGOS:
        def cell(label, wrapped, level1, **fields):
            ops.append(dict(kind="mc", label=f"{algo}/{label}", algo=algo,
                            n=3, wrapped=wrapped, level1=level1, think=30,
                            eat=8, seed=seeds[0], replay_seeds=replay_seeds,
                            budget=budget, expect="clean", **fields))
        for label, wrapped, level1 in (("bare", 0, 0), ("level1", 0, 1),
                                       ("wrapped", 1, 0), ("both", 1, 1)):
            cell(label + "/safety", wrapped, level1, property="safety")
        cell("wrapped/channel", 1, 0, property="convergence", fault_budget=2)
        cell("both/channel", 1, 1, property="convergence", fault_budget=2)
        cell("wrapped/lifecycle", 1, 0, property="convergence",
             fault_budget=1, lifecycle=1)
    # The mutants try the root seeds the mutation smoke in tools/graybox_mc
    # pins, in its order: the workload seed never moves a catch, nor its
    # cost (a miss on a seed spends the whole 400-execution budget).
    for name, think in (("mutant-ra-tiebreak", 3), ("mutant-ra-eager-reply", 20),
                        ("mutant-lamport-no-ack", 10)):
        ops.append(dict(kind="mc", label=name, algo=name, n=2, wrapped=0,
                        level1=0, think=think, eat=8, seed=1,
                        explore_seeds="1,2,3,4", budget=400, delay_budget=3,
                        property="safety", expect="bug"))
    return ops


WORKLOADS = {"service_n32": service_n32, "recovery_n256": recovery_n256,
             "sustained_load_n32": sustained_load_n32, "mc_sweep": mc_sweep}


def generate(workload, seed, small=False):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), small)


# --------------------------------------------------------------------------
# Build and run.

def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "gbx_perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True,
                   stdout=sys.stderr)


def no_aslr():
    """A fixed address-space layout steadies host time between processes."""
    cmd = ["setarch", os.uname().machine, "-R"]
    try:
        subprocess.run(cmd + ["true"], check=True, stderr=subprocess.DEVNULL)
        return cmd
    except (OSError, subprocess.CalledProcessError):
        return []


def run_program(ops, seconds, trace, tag):
    path = os.path.join(BUILD, f"ops-{tag}-{os.getpid()}.txt")
    with open(path, "w") as f:
        for op in ops:
            f.write(" ".join(f"{k}={v}" for k, v in op.items()) + "\n")
    try:
        out = subprocess.run(
            no_aslr() + [EXE, "--ops", path, "--seconds", str(seconds),
                         "--trace", str(trace)],
            check=True, stdout=subprocess.PIPE, text=True).stdout
    finally:
        os.remove(path)
    lines = [json.loads(line) for line in out.splitlines() if line]
    return lines[:-1], lines[-1]


def to_reference_speed(records, tail):
    """Scale each host time by PROBE_REF_S over the probe timed beside it."""
    for r in records:
        scale = PROBE_REF_S / r["probe_s"]
        for key in ("run_s", "explorer_s", "observe_ns"):
            if key in r:
                r[key] *= scale
        for span in r.get("spans", {}):
            r["spans"][span] *= scale
    tail["setup_ns"] = [ns * PROBE_REF_S * 1e9 / probe_ns for ns, probe_ns
                        in zip(tail["setup_ns"], tail["setup_probe_ns"])]


# --------------------------------------------------------------------------
# Oracles and pinned facts.

def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fault_free(op):
    return op["burst"] == 0 and not any(k.startswith("fp_") for k in op)


def trial_oracle(op, rec):
    """Why one harness run fails its oracle, or None."""
    f, n = rec["facts"], op["n"]
    if op.get("wrapped") and (not f["stabilized"] or f["starvation"]):
        return "wrapped trial did not stabilize"
    if op["kind"] == "mc" or fault_free(op):
        if f["safety_violations"]:
            return f"fault-free trial had {f['safety_violations']} violations"
    if op["kind"] == "trial" and fault_free(op) and not op["wrapped"]:
        k, rel = MSGS_PER_ENTRY[op["algo"]]
        want = k * (n - 1) * f["cs_entries"]
        if not (f["messages"] == want if rel == "==" else
                f["messages"] <= want):
            return f"{f['messages']} messages for {f['cs_entries']} entries"
    return None


def explorer_oracle(op, rec):
    if op["expect"] == "bug" and not rec["found"]:
        return "seeded mutant not caught"
    if op["expect"] == "clean" and rec["found"]:
        return f"correct code reported a {rec['bug_kind']} bug"
    return None


def op_fingerprint(op, recs):
    """Deterministic facts of one operation (pinned per seed)."""
    if op["kind"] == "mc":
        ex = recs[0]
        keep = {k: ex[k] for k in ("found", "bug_kind", "steps", "found_seed",
                                   "stats")}
        return digest([keep] + [[r["root_digest"], r["root_events"],
                                 r["facts"]]
                                for r in recs[1:] if r["variant"] == "base"])
    return digest(recs[0]["facts"])


def check(ops, records, pins):
    """Group records by (round, op) and count failed operations."""
    groups = {}
    for rec in records:
        groups.setdefault((rec["round"], rec["op"]), []).append(rec)
    first = {}
    failed, problems = 0, []
    for (rnd, i), recs in sorted(groups.items()):
        op, why = ops[i], None
        runs = recs[1:] if op["kind"] == "mc" else recs
        if op["kind"] == "mc":
            why = explorer_oracle(op, recs[0])
            for r in runs:
                if r["digest"] != r["root_digest"]:
                    why = why or "root replay digest differs from explorer"
        for r in runs:
            why = why or trial_oracle(op, r)
        # Toggle pairs: provenance, metrics and the event bus are passive.
        trials = {}
        for r in runs:
            trials.setdefault(r.get("replay", 0), []).append(r)
        for r, r0 in ((r, t[0]) for t in trials.values() for r in t[1:]):
            if r["facts"] != r0["facts"]:
                why = why or f"{r['variant']} variant changed simulated facts"
            for key in ("provenance", "histograms"):
                if key in r and key in r0 and r[key] != r0[key]:
                    why = why or f"{r['variant']} variant changed {key}"
        fp = op_fingerprint(op, recs)
        if first.setdefault(i, fp) != fp:
            why = why or "facts differ from the first round"
        if pins is not None and pins[i] != fp:
            why = why or "facts differ from the pinned facts"
        if why:
            failed += 1
            problems.append(f"round {rnd} op {i} ({op.get('label', op['algo'])}): {why}")
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    return len(groups), failed, first


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def pins_for(workload, seed):
    return load_pins().get(workload, {}).get(str(seed))


# --------------------------------------------------------------------------
# Metrics.

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def by_round(records, variant):
    out = {}
    for r in records:
        if r.get("variant") == variant:
            out.setdefault(r["round"], []).append(r)
    return [out[k] for k in sorted(out)]


def fast_quartile(values):
    """Lower quartile: what the host allows when others leave it alone."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def op_host_s(rounds, key):
    """Each run's lower-quartile `key` over the rounds, summed. A run is one
    operation's trial, or one of an explorer cell's root replays."""
    per_run = {}
    for rs in rounds:
        for r in rs:
            per_run.setdefault((r["op"], r.get("replay", 0)), []).append(r[key])
    return sum(fast_quartile(v) for v in per_run.values())


def end_to_end(ops, records, tail):
    runs = by_round(records, "base")
    first = runs[0]
    explorer = by_round(records, "explorer")
    wrapped = [r for r in first if ops[r["op"]].get("wrapped")]
    avail = [min(1.0, ratio(r["facts"]["me2_served"],
                            r["facts"]["requests_issued"]))
             if r["facts"]["requests_issued"] else 1.0 for r in first]
    # Host time per operation is its lower quartile over the rounds: other
    # tenants of a shared host only ever slow a round down, for seconds at a
    # time. trial_s is the mean over operations (a quantile of the pooled
    # samples would jump between the protocols' clusters).
    if explorer:  # mc_sweep: an operation is one explorer cell
        trial_s = op_host_s(explorer, "explorer_s") / len(explorer[0])
    else:
        trial_s = op_host_s(runs, "run_s") / len(first)
    run_s = op_host_s(runs, "run_s")
    return {
        "events_per_sec": (ratio(sum(r["facts"]["events"] for r in first),
                                 run_s), "events/s"),
        "cs_entries_per_sec": (ratio(
            sum(r["facts"]["cs_entries"] for r in first), run_s), "entries/s"),
        "trial_s": (trial_s, "s"),
        "setup_s": (median(tail["setup_ns"]) / 1e9, "s"),
        "peak_rss_mb": (tail["peak_rss_mib"], "MiB"),
        "stabilized_frac": (ratio(sum(r["facts"]["stabilized"]
                                      for r in wrapped), len(wrapped)),
                            "ratio"),
        "availability": (statistics.fmean(avail), "ratio"),
    }


def hist_percentile(recs, name, q):
    """Nearest-rank percentile over merged buckets (bucket upper bounds)."""
    merged, bounds = None, None
    for r in recs:
        h = r.get("histograms", {}).get(name)
        if not h or not h.get("buckets"):
            continue
        bounds = h["bounds"]
        merged = (h["buckets"] if merged is None else
                  [a + b for a, b in zip(merged, h["buckets"])])
    if not merged or not sum(merged):
        return 0
    rank, seen = math.ceil(q * sum(merged)), 0
    for i, c in enumerate(merged):
        seen += c
        if seen >= rank:
            return bounds[i] if i < len(bounds) else bounds[-1] + 1
    return bounds[-1] + 1


def per_layer(ops, records):
    base_rounds = by_round(records, "base")
    base = base_rounds[0]
    traced = [r for rs in by_round(records, "traced") for r in rs]
    noprov = [r for rs in by_round(records, "no-provenance") for r in rs]
    nomet = [r for rs in by_round(records, "no-metrics") for r in rs]
    allbase = [r for rs in base_rounds for r in rs]
    explorer = by_round(records, "explorer")

    def total(recs, key, sub="facts"):
        return sum(r.get(sub, {}).get(key, 0) for r in recs)

    def run_ns(recs):
        return sum(r["run_s"] for r in recs) * 1e9

    events_all = total(allbase, "events")
    m = {}
    for span in ("ctor", "start", "warmup", "burst", "observe", "drain",
                 "report"):
        m[f"core.{span}_s"] = (median([r["spans"][span] for r in traced]),
                               "s")
    m["sim.events"] = (total(base, "events"), "count")
    m["sim.handler_ns_per_event"] = (ratio(
        run_ns(allbase) - sum(r["observe_ns"] for r in allbase), events_all),
        "ns")
    m["lspec.observe_ns_per_event"] = (ratio(
        sum(r["observe_ns"] for r in allbase), events_all), "ns")
    m["lspec.observe_share"] = (ratio(
        sum(r["observe_ns"] for r in allbase), run_ns(allbase)), "ratio")
    m["lspec.violations"] = (total(base, "violations_total"), "count")
    m["lspec.clause_violations"] = (total(base, "clause_violations"), "count")
    m["lspec.safety_violations"] = (total(base, "safety_violations"), "count")
    m["net.messages"] = (total(base, "messages"), "count")
    m["net.messages_per_cs_entry"] = (ratio(
        total(base, "messages"), total(base, "cs_entries")), "ratio")
    m["net.in_flight_p50"] = (hist_percentile(base, "net_in_flight", 0.5),
                              "count")
    m["net.in_flight_p99"] = (hist_percentile(base, "net_in_flight", 0.99),
                              "count")
    m["net.queue_depth_p99"] = (hist_percentile(
        base, "channel_queue_depth", 0.99), "count")
    m["net.faults"] = (total(base, "faults_injected"), "count")
    m["net.dropped_by_partition"] = (total(base, "dropped_by_partition"),
                                     "count")
    m["net.deliveries_to_crashed"] = (total(base, "deliveries_to_crashed"),
                                      "count")
    for key in ("cs_entries", "requests_issued", "sent_request", "sent_reply",
                "sent_release"):
        m[f"me.{key}"] = (total(base, key), "count")
    m["me.cs_wait_ticks_p50"] = (hist_percentile(base, "cs_wait_ticks", 0.5),
                                 "ticks")
    m["me.cs_wait_ticks_p99"] = (hist_percentile(base, "cs_wait_ticks", 0.99),
                                 "ticks")
    resends, evals = total(base, "resends"), total(base, "evaluations")
    m["wrapper.messages"] = (total(base, "wrapper_messages"), "count")
    wrapped = [r for r in base if ops[r["op"]].get("wrapped")]
    m["wrapper.message_share"] = (ratio(total(wrapped, "wrapper_messages"),
                                        total(wrapped, "messages")), "ratio")
    m["wrapper.resends"] = (resends, "count")
    m["wrapper.evaluations"] = (evals, "count")
    m["wrapper.resends_per_evaluation"] = (ratio(resends, evals), "ratio")
    m["wrapper.level1_corrections"] = (total(base, "level1_corrections"),
                                       "count")
    m["wrapper.fault_free_overhead"] = (fault_free_overhead(ops, base_rounds),
                                        "ratio")
    m["obs.provenance_ns_per_event"] = (ratio(
        run_ns(allbase) - run_ns(noprov), events_all), "ns")
    m["obs.metrics_ns_per_event"] = (ratio(
        run_ns(allbase) - run_ns(nomet), events_all), "ns")
    m["obs.trace_overhead_ns_per_event"] = (ratio(
        run_ns(traced) - run_ns(allbase), events_all), "ns")
    for key in ("faults_minted", "processes_tainted", "messages_tainted",
                "violations_attributed", "taint_overflows"):
        m[f"obs.{key}"] = (total(base, key, "provenance"), "count")
    first_traced = [r for r in traced if r["round"] == 0]
    for kind in BUS_KINDS:
        m[f"obs.bus.{kind}"] = (total(first_traced, kind, "bus"), "count")
    ex0 = explorer[0] if explorer else []
    stat = lambda key: sum(r["stats"][key] for r in ex0)
    for key in ("executions", "choice_points", "alternatives", "pruned_sleep",
                "pruned_delay", "faults_placed", "shrink_executions"):
        m[f"mc.{key}"] = (stat(key), "count")
    ex_all = [r for rs in explorer for r in rs]
    execs = sum(r["stats"]["executions"] + r["stats"]["shrink_executions"]
                for r in ex_all)
    ex_s = sum(r["explorer_s"] for r in ex_all)
    m["mc.ms_per_execution"] = (ratio(ex_s * 1e3, execs), "ms")
    m["mc.executions_per_sec"] = (ratio(execs, ex_s), "1/s")
    roots = [r["root_events"] for r in base if "root_events" in r]
    m["mc.events_per_execution"] = (ratio(sum(roots), len(roots)), "events")
    return m


def fault_free_overhead(ops, base_rounds):
    """Wrapped / bare host time over same-seed fault-free pairs."""
    tiers = {}
    for op in ops:
        if op["kind"] == "trial" and fault_free(op):
            tiers.setdefault((op["algo"], op["seed"]), set()).add(op["wrapped"])
    paired = {k for k, v in tiers.items() if len(v) == 2}
    per_round = []
    for rs in base_rounds:
        time = {0: 0.0, 1: 0.0}
        for r in rs:
            op = ops[r["op"]]
            if op["kind"] == "trial" and (op["algo"], op["seed"]) in paired:
                time[op["wrapped"]] += r["run_s"]
        if time[0]:
            per_round.append(time[1] / time[0])
    return median(per_round)


# --------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, small=False, pinned=True):
    ops = generate(workload, seed, small)
    records, tail = run_program(ops, seconds, trace, workload)
    probe_ms = median([r["probe_s"] for r in records]) * 1e3
    to_reference_speed(records, tail)
    pins = pins_for(workload, seed) if pinned and not small else None
    attempted, failed, fingerprints = check(ops, records, pins)
    if trace:
        metrics = per_layer(ops, records)
        metrics["host.probe_ms"] = (probe_ms, "ms")
    else:
        metrics = end_to_end(ops, records, tail)
    return dict(correct=failed == 0 and attempted > 0, attempted=attempted,
                failed=failed,
                metrics={k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}), fingerprints


def pin(workload, seed):
    _, fingerprints = measure(workload, seed, 0, 0, pinned=False)
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = [
        fingerprints[i] for i in sorted(fingerprints)]
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {workload} seed {seed}", file=sys.stderr)


def smoke():
    """Self-test on small sizes: names and units, toggles, repeatability."""
    with open(SPEC) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    all_ok = True
    for w in spec["workloads"]:
        name, problems, results, facts = w["name"], [], {}, {}
        for trace, tag in ((0, "a"), (0, "b"), (1, "t")):
            r, facts[tag] = measure(name, 7, 0, trace, small=True)
            results[tag] = r
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"trace {trace} metrics or units differ "
                                "from BENCHMARK.json")
            if not r["correct"]:
                problems.append(f"trace {trace} run failed "
                                f"{r['failed']}/{r['attempted']}")
        for key in ("stabilized_frac", "availability"):
            if results["a"]["metrics"][key] != results["b"]["metrics"][key]:
                problems.append(f"{key} differs between same-seed runs")
        if not facts["a"] == facts["b"] == facts["t"]:
            problems.append("same-seed runs differ in simulated facts")
        for p in problems:
            print(f"smoke {name}: {p}", file=sys.stderr)
        print(f"smoke {name}: {'FAILED' if problems else 'ok'}",
              file=sys.stderr)
        all_ok = all_ok and not problems
    return all_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test on small sizes")
    ap.add_argument("--pin", action="store_true",
                    help="record the workload's facts for --seed")
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.smoke:
        sys.exit(0 if smoke() else 1)
    if not args.workload:
        ap.error("--workload is required")
    if args.pin:
        pin(args.workload, args.seed)
        return
    result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
