#!/usr/bin/env python3
"""End-to-end search benchmark: runs bench_e2e searches, checks them and
reports the metrics. See bench/e2e/README.md.

One measurement (the command BENCHMARK.json names), from the repository root:

    python3 bench/e2e/run.py --workload combo-a2c --seed 7 --seconds 15 --trace 0

builds bench_e2e into .bench_build/e2e if needed. With --trace 0 it runs K
searches, each in a fresh process, with seeds derived from --seed (K follows
from --seconds alone, so two commits measure the same searches), then the
first search once more to check determinism, then set-up-only processes
until 11 set-ups are measured, and prints the end-to-end metrics. With
--trace 1 it runs the search of seed --seed untraced min(3, K) times, then
once traced with the per-layer replay, and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The suite (bench/e2e/run.sh) runs every workload, optionally in two sets:

    python3 bench/e2e/run.py suite [--build DIR] [--reps N] [--sets K]
                                   [--seed S] [--out DIR]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_build"
# Wall seconds of one search on a 4-core x86-64 host. Only used to turn
# --seconds into a search count, never measured at run time.
SEARCH_SECONDS = {"combo-a2c": 1.8, "nt3-a3c": 1.7, "combo-ladder": 2.1, "serve-3tenant": 16.0}
# Fresh processes whose set-up time a measurement takes the fastest of: its
# searches, then as many set-up-only processes as that leaves.
SETUP_SAMPLES = 11
# Untraced searches whose median wall the traced pass compares against.
TRACE_BASE_SEARCHES = 3
DEFAULT_SEED = 7
SEED_STRIDE = 0x9E3779B97F4A7C15
# A measurement stops starting searches after this many seconds, so a run
# that has gone badly wrong still exits well within three minutes.
DEADLINE_S = 150
# Must be identical for every search of one seed, and equal the pins at the
# pinned seed.
COUNTS = ["evals", "real_evals", "cache_hits", "ppo_updates", "ladder_trainings", "digest"]
E2E_UNITS = {"search_wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MiB"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and rebuilds incrementally. Returns the binary path."""
    stamp = build_dir / "configured.stamp"
    if not stamp.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
        stamp.touch()
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_e2e", "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=1200)
    return build_dir / "bench_e2e"


def child(binary, workload, seed, *extra, deadline=None):
    """One bench_e2e process, killed at `deadline` (time.monotonic()).
    Returns (parsed JSON or None, exit code)."""
    left = DEADLINE_S if deadline is None else deadline - time.monotonic()
    if left <= 0:
        return None, -1
    state = WORK / "state" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--state-dir", str(state), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        return None, -1
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        return None, proc.returncode


def passed(reps):
    """The parsed searches that exited 0 and failed none of their own checks."""
    return [r for r, code in reps if r is not None and code == 0 and not r["failures"]]


def search_count(workload, seconds):
    return max(1, round(seconds / SEARCH_SECONDS[workload]))


def run_searches(binary, workload, seed, seconds):
    """One measurement: the K searches, the first one again, then the
    set-up-only processes. Returns (searches with the repeat last, set-ups)."""
    seeds = [(seed + i * SEED_STRIDE) % 2**64 for i in range(search_count(workload, seconds))]
    deadline = time.monotonic() + DEADLINE_S
    reps = [child(binary, workload, s, deadline=deadline) for s in seeds + seeds[:1]]
    setups = [child(binary, workload, seeds[i % len(seeds)], "--setup-only", deadline=deadline)
              for i in range(max(0, SETUP_SAMPLES - len(reps)))]
    return reps, setups


def e2e_metrics(reps, setups):
    """End-to-end metrics of a measurement: each is the median, over its K
    searches (not the repeat), of that search's own value. Set-up time is
    the fastest of every process of the measurement: set-up takes a few
    milliseconds, mostly page faults, and on a shared VM their cost shifts
    from minute to minute by more than the median of eleven can absorb
    (see README.md)."""
    ok = passed(reps[:-1])
    setup = passed(reps + setups)
    if not ok or len(ok) != len(reps) - 1 or len(setup) != len(reps) + len(setups):
        return {}
    values = {
        "search_wall_s": statistics.median(r["search_wall_s"] for r in ok),
        "evals_per_s": statistics.median(r["real_evals"] / r["search_wall_s"] for r in ok),
        "setup_s": min(r["setup_s"] for r in setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k], "n": len(setup if k == "setup_s" else ok)}
            for k, v in values.items()}


def load_pins():
    return json.loads((HERE / "baseline.json").read_text())["pins"]


def check_reps(reps, pins):
    """Failed-check messages per search: exit status, the program's own
    checks, identical counts for searches of one seed, and the pins."""
    messages, by_seed = [], {}
    for rep, code in reps:
        bad = []
        if rep is None or code != 0:
            bad.append(f"exit code {code}")
        if rep is not None:
            bad += rep.get("failures", [])
            first = by_seed.setdefault(rep["seed"], rep)
            bad += [f"{k} differs between searches of seed {rep['seed']}" for k in COUNTS
                    if rep.get(k) != first.get(k)]
            pin = pins["workloads"].get(rep["workload"])
            if pin and all(rep[k] == pins[k] for k in ("seed", "simd_isa", "compiler")):
                bad += [f"{k} {rep.get(k)} != pinned {v}" for k, v in pin.items()
                        if rep.get(k) != v]
        messages.append(bad)
    return messages


def count_failures(reps, pins, label, setups=()):
    """Failed searches (see check_reps) plus set-up-only processes that did
    not exit cleanly."""
    problems = check_reps(reps, pins)
    for i, msgs in enumerate(problems):
        for msg in msgs:
            log(f"{label} search {i}: {msg}")
    bad_setups = len(setups) - len(passed(setups))
    if bad_setups:
        log(f"{label}: {bad_setups} set-up-only processes failed")
    return sum(1 for msgs in problems if msgs) + bad_setups


def measure_trace(binary, workload, seed, out_dir, untraced_wall, deadline=None):
    """The traced pass; trace.overhead_ratio is its wall over `untraced_wall`."""
    rep = child(binary, workload, seed, "--trace", "--out", str(out_dir), deadline=deadline)
    metrics = {}
    if rep[0] is not None and "layers" in rep[0]:
        for m in rep[0]["layers"]:
            metrics[m["name"]] = {"value": m["value"], "unit": m["unit"]}
            if m["n"]:
                metrics[m["name"]]["n"] = m["n"]
        metrics["trace.overhead_ratio"] = {
            "value": rep[0]["search_wall_s"] / untraced_wall - 1.0, "unit": "ratio"}
    return rep, metrics


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        extra = (f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})" if "q1" in m
                 else f"  (n {m['n']})" if "n" in m else "")
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}{extra}")


def measurement(args):
    binary = build(WORK / "e2e")
    pins = load_pins()
    metrics, setups = {}, []
    if args.trace:
        deadline = time.monotonic() + DEADLINE_S
        # The untraced base is a median where time allows: one search's wall
        # moves by several percent from run to run on a shared host.
        base_count = min(TRACE_BASE_SEARCHES, search_count(args.workload, args.seconds))
        reps = [child(binary, args.workload, args.seed, deadline=deadline)
                for _ in range(base_count)]
        ok = passed(reps)
        if len(ok) == len(reps):
            base = statistics.median(r["search_wall_s"] for r in ok)
            traced, metrics = measure_trace(binary, args.workload, args.seed, WORK / "out",
                                            base, deadline)
            reps.append(traced)
    else:
        reps, setups = run_searches(binary, args.workload, args.seed, args.seconds)
        metrics = e2e_metrics(reps, setups)
    failed = count_failures(reps, pins, args.workload, setups)
    attempted = len(reps) + len(setups)
    print_metrics(f"{args.workload} seed {args.seed}: {len(reps)} searches, {len(setups)} "
                  f"set-ups, {failed} failed", metrics)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def host_facts(rep):
    """Host facts from one search's report, plus the checkout's commit."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {"machine": platform.machine(), "nproc": os.cpu_count(),
            "pool_threads": min(4, os.cpu_count() or 1), "simd_isa": rep.get("simd_isa"),
            "compiler": rep.get("compiler"), "commit": commit.stdout.strip() or "unknown"}


def suite(argv):
    p = argparse.ArgumentParser(prog="run.sh", description="Run every workload.")
    p.add_argument("--build", type=Path, default=WORK / "e2e",
                   help="build directory holding bench_e2e (nothing is built)")
    p.add_argument("--reps", type=int, default=5, help="measurements per workload and set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=WORK / "out")
    args = p.parse_args(argv)
    binary = args.build.resolve() / "bench_e2e"
    if not binary.exists():
        log(f"no {binary}; build it first (see bench/e2e/README.md)")
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    pins = load_pins()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets, attempted, failed, first = [], 0, 0, {}
    for k in range(args.sets):
        results = {}
        for workload in SEARCH_SECONDS:
            runs = [run_searches(binary, workload, args.seed, bench["run_seconds"])
                    for _ in range(args.reps)]
            reps = [rep for searches, _ in runs for rep in searches]
            setups = [rep for _, run_setups in runs for rep in run_setups]
            per_run = [e2e_metrics(*run) for run in runs]
            metrics, counts = {}, []
            if all(per_run):
                searches = [run[0] for run in runs]
                first = searches[0][0][0]
                for name, unit in E2E_UNITS.items():
                    values = [m[name]["value"] for m in per_run]
                    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                                 else values * 3)
                    metrics[name] = {"value": statistics.median(values), "unit": unit,
                                     "q1": q1, "q3": q3, "n": len(values)}
                counts = [{c: r[0][c] for c in ["seed"] + COUNTS} for r in searches[0][:-1]]
                # Every measurement's first search has the seed the traced pass runs.
                base = statistics.median(s[0][0]["search_wall_s"] for s in searches)
                traced, layers = measure_trace(binary, workload, args.seed, args.out, base)
                reps.append(traced)
                metrics.update(layers)
            attempted += len(reps) + len(setups)
            failed += count_failures(reps, pins, f"set {k + 1} {workload}", setups)
            results[workload] = {"metrics": metrics, "counts": counts}
            print_metrics(f"set {k + 1} {workload}: {len(reps)} searches", metrics)
        sets.append(results)

    agree = True
    if len(sets) > 1:
        print("sets agree? (first vs last median within the bound; counts and digests equal)")
        for workload in SEARCH_SECONDS:
            a, b = sets[0][workload], sets[-1][workload]
            for name, bound in bounds.items():
                if name not in a["metrics"] or name not in b["metrics"]:
                    agree = False
                    continue
                x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                ok = abs(y - x) <= bound * abs(x)
                agree = agree and ok
                print(f"  {workload:14s} {name:14s} {x:12.6g} {y:12.6g} "
                      f"{'agree' if ok else 'DISAGREE'} (bound {bound:.0%})")
            same = a["counts"] == b["counts"]
            agree = agree and same
            print(f"  {workload:14s} counts+digests {'identical' if same else 'DIFFER'}")

    failed_ratio = failed / attempted if attempted else 1.0
    print(f"failed_ratio {failed_ratio:.4g} ratio ({failed} of {attempted} processes)")
    report = {"host": host_facts(first), "seed": args.seed,
              "reps": args.reps, "failed_ratio": failed_ratio, "agree": agree, "sets": sets}
    (args.out / "results.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out / 'results.json'}")
    return 0 if failed == 0 and agree else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "suite":
        return suite(sys.argv[2:])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(SEARCH_SECONDS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return measurement(p.parse_args())


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"run.py: {e}")
        sys.exit(2)
