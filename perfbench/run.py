#!/usr/bin/env python3
"""Revizor-OCaml benchmark: audit / hunt / fleet workloads.

Run from the repository root:

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds perfbench/revizor_perfbench.exe with dune, runs the
workload as a sequence of fresh processes ("steps"), checks every
campaign's outcome, prints each metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 repeats a smaller
window untraced and traced and reports the per-layer metrics. See
perfbench/README.md for the workloads, metrics and clocks.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

EXE_TARGET = "perfbench/revizor_perfbench.exe"
EXE = os.path.join("_build", "default", EXE_TARGET)
WORK = ".perfbench"
REQUIRED = ["dune-project", "lib/revizor/fuzzer.ml", "lib/fleet/orchestrator.ml",
            "perfbench/dune", "perfbench/revizor_perfbench.ml"]

# Work per run is fixed by --seconds through these per-step costs,
# measured on a 2-vCPU Xeon (KVM guest) including process start and
# outcome checks: an audit campaign (300 test cases) takes ~3.3 s, a
# hunt round (one V1, MDS and LVI campaign) ~0.46 s, a 16-shard fleet
# ~1.7 s wall. Fixing the work (rather than stopping on a timer) keeps a
# seed's inputs identical across runs.
AUDIT_STEP_S = 3.0
HUNT_ROUND_S = 0.46
FLEET_STEP_S = 1.7
HUNT_PROCESSES = 10
PASSES = 3
FLEET_SHARDS = 16
# A run starts no step after RUN_LIMIT_S and kills any step still running
# at DEADLINE_S, so it ends within 180 s even on a much slower host.
RUN_LIMIT_S = 150.0
DEADLINE_S = 170.0

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END = [
    ("setup_s", "s"),
    ("tc_per_cpu_s", "1/s"),
    ("tc_per_s", "1/s"),
    ("ttd_s_p50", "s"),
    ("ttd_s_tail", "s"),
    ("tc_to_detect_p50", "count"),
    ("detected_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("generator.share", "ratio"), ("generator.us_per_tc", "us"),
    ("compiled.share", "ratio"), ("compiled.ns_per_inst", "ns"),
    ("interpreted.ns_per_inst", "ns"),
    ("input.share", "ratio"), ("input.ns_per_word", "ns"),
    ("input.full_fill_share", "ratio"),
    ("model.share", "ratio"), ("model.us_per_trace", "us"),
    ("executor.share", "ratio"), ("executor.us_per_input_run", "us"),
    ("executor.memo_hit_ratio", "ratio"), ("cpu.ns_per_inst", "ns"),
    ("cache.ns_per_prime_probe", "ns"),
    ("analyzer.share", "ratio"), ("analyzer.us_per_class", "us"),
    ("filter.share", "ratio"), ("filter.candidates", "count"),
    ("filter.dismissed_share", "ratio"),
    ("loop_other.share", "ratio"), ("gc.share", "ratio"),
    ("gc.minor_words_per_tc", "words"),
    ("campaign_setup.share", "ratio"),
    ("campaign.checkpoints", "count"), ("campaign.checkpoint_ms", "ms"),
    ("fleet.shard_fixed_s", "s"), ("fleet.idle_share", "ratio"),
    ("fleet.attempts_per_shard", "count"), ("fleet.quarantined", "count"),
    ("accounted_share", "ratio"), ("trace_overhead", "ratio"),
]

# Layers whose self time the traced run reports as a share.
SHARE_LAYERS = ["generator", "compiled", "input", "model", "executor",
                "analyzer", "filter", "loop_other", "campaign_setup"]
UNIT_COSTS = {  # replayed unit cost -> nanoseconds per reported unit
    "generator.us_per_tc": 1e3, "compiled.ns_per_inst": 1.0,
    "interpreted.ns_per_inst": 1.0, "input.ns_per_word": 1.0,
    "model.us_per_trace": 1e3, "executor.us_per_input_run": 1e3,
    "cpu.ns_per_inst": 1.0, "cache.ns_per_prime_probe": 1.0,
    "analyzer.us_per_class": 1e3,
}


class SetupError(Exception):
    pass


# ---- statistics --------------------------------------------------------

def ranked(records, key):
    """Values of [key] sorted ascending, with failed campaigns (misses,
    non-reproducing or mislabelled violations) sorted after every success
    whatever their value."""
    return [r[key] for r in sorted(records, key=lambda r: (not r["ok"], r[key]))]


def p50(values):
    """Nearest-rank median (a value that was measured)."""
    return values[(len(values) + 1) // 2 - 1]


def tail_index(n):
    """Index of the highest percentile that still has at least ten
    samples beyond it. Below 21 samples no percentile above the median
    has ten beyond it; the maximum is reported instead."""
    return n - 11 if n >= 21 else n - 1


def tail(values):
    i = tail_index(len(values))
    return values[i], 100.0 * (i + 1) / len(values)


def ratio(num, den):
    return num / den if den else 0.0


# ---- steps ---------------------------------------------------------------

def run_step(argv, env, run_dir, timeout):
    """Run one fresh process; return (exit code, parsed last stdout line
    or None, rusage). The process gets its own session so a crash cannot
    leave forked fleet workers behind."""
    out_path = os.path.join(run_dir, "step.out")
    err_path = os.path.join(run_dir, "step.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                             start_new_session=True)
        timer = threading.Timer(timeout, kill_group, (p.pid,))
        timer.start()
        try:
            _, status, rusage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        kill_group(p.pid)
    with open(out_path, "rb") as f:
        lines = f.read().decode(errors="replace").strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        with open(err_path, "rb") as f:
            sys.stderr.write(f.read().decode(errors="replace")[-2000:])
    return p.returncode, result, rusage


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def plan(workload, seed, seconds, scale=1.0):
    """The steps of a run: (argv tail, campaigns the step attempts).
    Seed s covers campaign indices s, s+1, ... of the workload's campaign
    sequence, so the same seed always runs the same campaigns."""
    if workload == "audit":
        n = max(1, round(seconds * scale / AUDIT_STEP_S))
        return [(["campaigns", "--workload", "audit", "--from", str(seed + i),
                  "--count", "1"], 1) for i in range(n)]
    if workload == "hunt":
        rounds = max(1, round(seconds * scale / HUNT_ROUND_S))
        procs = min(HUNT_PROCESSES, rounds)
        steps, start = [], seed
        for k in range(procs):
            count = rounds // procs + (1 if k < rounds % procs else 0)
            steps.append((["campaigns", "--workload", "hunt", "--from", str(start),
                           "--count", str(count)], 3 * count))
            start += count
        return steps
    n = max(1, round(seconds * scale / FLEET_STEP_S))
    workers = max(1, min(os.cpu_count() or 1, 4))
    return [(["fleet", "--from", str(seed + FLEET_SHARDS * i),
              "--shards", str(FLEET_SHARDS), "--workers", str(workers)], FLEET_SHARDS)
            for i in range(n)]


def run_pass(workload, steps, run_dir, env, t_start, name, traced=False):
    """Run the planned steps once, in order, each in a fresh process.
    Returns one result per step started; a step that crashed yields a
    placeholder whose campaigns all failed."""
    results = []
    for i, (args, campaigns) in enumerate(steps):
        if time.monotonic() - t_start > RUN_LIMIT_S:
            break
        argv = [EXE] + args
        fleet_dir = None
        if workload == "fleet":
            fleet_dir = os.path.join(run_dir, "%s-fleet-%d" % (name, i))
            argv += ["--dir", fleet_dir]
        if traced:
            spans = os.path.join(run_dir, "spans-%d.jsonl" % i)
            argv += ["--trace", "--spans-out", spans]
            if i == 0:
                argv.append("--replay")
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - t_start))
        rc, result, rusage = run_step(argv, env, run_dir, timeout)
        if fleet_dir:
            shutil.rmtree(fleet_dir, ignore_errors=True)
        if result is None:
            sys.stderr.write("step %s exited %d without a result\n"
                             % (" ".join(args), rc))
            placeholder = {"id": "crashed", "ok": False, "ttd_s": 0.0, "tc": 0}
            result = {"failed_step": True, "digest": "crashed",
                      "campaigns": [placeholder] * campaigns}
        result["maxrss_kb"] = rusage.ru_maxrss
        results.append(result)
    return results


def best_of(a, b):
    """Two runs of one step: the outputs must be identical (the campaigns
    are deterministic), and each timing is the lower of the two, per
    campaign where campaigns are timed on their own. The host's noise
    comes in bursts of a few seconds, so a unit run in passes far apart
    usually gets one clean reading."""
    if b is None or a.get("failed_step"):
        return a
    if b.get("failed_step"):
        return b
    merged = dict(a, consistent=a.get("consistent", True) and a["digest"] == b["digest"])
    merged["campaigns"] = [
        dict(ca, ok=ca["ok"] and cb["ok"],
             **{k: min(ca[k], cb[k]) for k in ("ttd_s", "cpu_s", "wall_s") if k in ca})
        for ca, cb in zip(a["campaigns"], b["campaigns"])]
    for key, per in (("timed_cpu_s", "cpu_s"), ("timed_wall_s", "wall_s")):
        if all(per in c for c in merged["campaigns"]):
            merged[key] = sum(c[per] for c in merged["campaigns"])
        else:
            merged[key] = min(a[key], b[key])
    return merged


def combined_digest(results):
    h = hashlib.md5()
    for r in results:
        h.update(r["digest"].encode())
    return h.hexdigest()


# ---- metrics -------------------------------------------------------------

def end_to_end(results, setups, peak_kb):
    ok = [r for r in results if not r.get("failed_step")]
    records = [c for r in results for c in r["campaigns"]]
    tc = sum(r["tc"] for r in ok)
    ttd = ranked(records, "ttd_s")
    tail_value, tail_pct = tail(ttd)
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "tc_per_cpu_s": ratio(tc, sum(r["timed_cpu_s"] for r in ok)),
        "tc_per_s": ratio(tc, sum(r["timed_wall_s"] for r in ok)),
        "ttd_s_p50": p50(ttd),
        "ttd_s_tail": tail_value,
        "tc_to_detect_p50": p50(ranked(records, "tc")),
        "detected_share": ratio(sum(1 for c in records if c["ok"]), len(records)),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {
        "setup_s": "CPU, median of %d cold processes" % len(setups),
        "ttd_s_p50": "median of %d campaigns" % len(ttd),
        "ttd_s_tail": "p%.1f of %d campaigns" % (tail_pct, len(ttd)),
        "tc_to_detect_p50": "median of %d campaigns" % len(ttd),
    }
    return metrics, notes


def per_layer(traced, untraced):
    ok = [r for r in traced if not r.get("failed_step")]
    tr = [r["trace"] for r in ok]
    if not tr:
        return {name: 0.0 for name, _ in PER_LAYER}, {}
    timed = sum(t["timed_ns"] for t in tr)
    layer = {name: sum(t["layers_ns"][name] for t in tr) for name in tr[0]["layers_ns"]}
    counters = {name: sum(t["counters"][name] for t in tr) for name in tr[0]["counters"]}
    m = {name + ".share": ratio(layer[name], timed) for name in SHARE_LAYERS}
    replay = [t["replay"] for t in tr if "replay" in t]
    for name, scale in UNIT_COSTS.items():
        ns = sum(r[name][0] for r in replay)
        units = sum(r[name][1] for r in replay)
        m[name] = ratio(ns, units) / scale
    m["input.full_fill_share"] = ratio(sum(r["full_fills"] for r in replay),
                                       sum(r["samples"] for r in replay))
    runs, hits = counters["executor.input_runs"], counters["executor.memo_hits"]
    m["executor.memo_hit_ratio"] = ratio(hits, hits + runs)
    cands = counters["fuzzer.candidates"]
    m["filter.candidates"] = cands
    m["filter.dismissed_share"] = ratio(counters["fuzzer.dismissed_by_swap"]
                                        + counters["fuzzer.dismissed_by_nesting"], cands)
    m["gc.share"] = ratio(sum(t["gc_ns"] for t in tr), timed)
    m["gc.minor_words_per_tc"] = ratio(sum(t["minor_words"] for t in tr),
                                       counters["fuzzer.test_cases"])
    ckpts = counters["fuzzer.checkpoints"]
    m["campaign.checkpoints"] = ckpts
    m["campaign.checkpoint_ms"] = ratio(counters["stage.checkpoint.ns"], ckpts) / 1e6
    fleet = [t for t in tr if "shard_fixed_s" in t]
    for key in ["shard_fixed_s", "idle_share", "attempts_per_shard", "quarantined"]:
        m["fleet." + key] = (sum(t[key] for t in fleet) / len(fleet)) if fleet else 0.0
    m["accounted_share"] = ratio(sum(layer.values()), timed)
    # Median over campaigns (fleet: steps) of traced / untraced CPU, so a
    # burst of host noise on a few of them does not read as overhead.
    pairs = [(t, u) for rt, ru in zip(traced, untraced)
             if not (rt.get("failed_step") or ru.get("failed_step"))
             for t, u in (zip(rt["campaigns"], ru["campaigns"])
                          if "cpu_s" in ru["campaigns"][0]
                          else [(rt, ru)])]
    key = "cpu_s" if pairs and "cpu_s" in pairs[0][1] else "timed_cpu_s"
    m["trace_overhead"] = statistics.median(
        [ratio(t[key], u[key]) for t, u in pairs]) - 1.0 if pairs else 0.0
    notes = {"accounted_share": "layer self time over %.3f s traced" % (timed / 1e9),
             "trace_overhead": "median traced/untraced CPU over %d pairs" % len(pairs)}
    return m, notes


# ---- main ----------------------------------------------------------------

def build():
    missing = [f for f in REQUIRED if not os.path.exists(f)]
    if missing:
        raise SetupError("not a Revizor-OCaml checkout (missing %s); run from the "
                         "repository root" % ", ".join(missing))
    if shutil.which("dune") is None:
        raise SetupError("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./" + EXE_TARGET],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise SetupError("build failed")


def emit(name, value, unit, note=""):
    print("  %-28s %14.6g %-6s %s" % (name, value, unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["audit", "hunt", "fleet"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own self-tests and exit")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        build()
    except SetupError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    if args.self_test:
        here = os.path.dirname(os.path.abspath(__file__))
        return subprocess.call([sys.executable, os.path.join(here, "selftest.py")])
    if args.workload is None:
        ap.error("--workload is required")

    t_start = time.monotonic()
    run_dir = os.path.join(WORK, "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(run_dir))

    if args.trace == 0:
        # Every step runs PASSES times, each pass after the whole previous
        # one, so each pass gets its share of the time.
        steps = plan(args.workload, args.seed, args.seconds, scale=1.0 / PASSES)
        passes = [run_pass(args.workload, steps, run_dir, env, t_start, "p%d" % k)
                  for k in range(PASSES)]
        runs = [r for p in passes for r in p]
        results = []
        for i, first in enumerate(passes[0]):
            for p in passes[1:]:
                first = best_of(first, p[i] if i < len(p) else None)
            results.append(first)
        setups = [r["setup_cpu_s"] for r in runs if not r.get("failed_step")]
        metrics, notes = end_to_end(results, setups, max(r["maxrss_kb"] for r in runs))
        units = END_TO_END
        consistent = all(r.get("consistent", True) for r in results)
    else:
        # A smaller window untraced, then the same steps traced: the pair
        # gives the tracing overhead, and tracing must not change outputs.
        steps = plan(args.workload, args.seed, args.seconds, scale=0.4)
        base = run_pass(args.workload, steps, run_dir, env, t_start, "a")
        traced = run_pass(args.workload, steps, run_dir, env, t_start, "b", traced=True)
        metrics, notes = per_layer(traced, base)
        units = PER_LAYER
        consistent = combined_digest(base) == combined_digest(traced) and all(
            r["trace"].get("reference_identical", True)
            for r in traced if not r.get("failed_step"))
        runs = base + traced
        results = [best_of(a, b) for a, b in zip(base, traced)]

    records = [c for r in results for c in r["campaigns"]]
    attempted = len(records)
    failed = sum(1 for c in records if not c["ok"])
    correct = (failed == 0 and consistent
               and not any(r.get("failed_step") for r in runs))
    if args.trace == 0:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("perfbench %s seed=%d seconds=%d trace=%d: %d steps, %d campaigns, %d failed"
          % (args.workload, args.seed, args.seconds, args.trace, len(runs),
             attempted, failed))
    print("  digest %s" % combined_digest(results))
    for c in records:
        if not c["ok"]:
            print("  FAILED %s %s %s" % (c["id"], c.get("verdict", "crashed"), c.get("label", "")))
    for name, unit in units:
        emit(name, metrics[name], unit, notes.get(name, ""))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
