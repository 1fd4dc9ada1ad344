#!/usr/bin/env python3
"""The repository's one benchmark: four workloads, both clocks.

One run, machine-readable (what the driver calls; the last line of
standard output is one JSON object)::

    python3 bench/run.py --workload point_ops --seed 7 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics and writes
``bench/out/<workload>.trace.jsonl``.

The report for people (every metric by name, unit and direction, median
and quartiles over ``--runs`` untraced runs with seeds N, N+1, ..., then
one traced run; one fresh subprocess per run)::

    python3 bench/run.py [--workload W] [--seed N] [--runs K] [--sets 2]

``--sets 2`` runs the whole set twice and exits non-zero if any
end-to-end median moved by more than its bound or any count that must
repeat exactly did not.  ``--check`` is a reduced-scale self-test of the
benchmark itself (all workloads, both kinds of run, every metric named
in ``BENCHMARK.json`` emitted with its unit), under 30 seconds.

See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: counts made by the program: with one client and no timers they must
#: repeat exactly between two runs of one commit on one seed
EXACT_END_TO_END = ("simulated_us_per_op", "write_amp", "space_amp")
#: per-layer metrics in count-like units that depend on the clock all
#: the same: shares of time, and the span count (a restart of
#: milliseconds is repeated until a second has been spent on it)
_CLOCKED = ("api.residual_share", "algebricks.compile_share",
            "trace.overhead_share", "trace.spans")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def is_exact(metric: dict) -> bool:
    """Is this per-layer metric a count made by the program, not a time?"""
    return (metric["unit"] in ("count", "ratio", "bytes", "share")
            and metric["name"] not in _CLOCKED)


# -- one run ----------------------------------------------------------------------

def run_one(args) -> int:
    """The driver's contract: run, check, print one JSON object last."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"the program under test is not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)        # bench/ itself is already first
    import harness
    import workloads

    inputs = workloads.build(args.workload, args.seed, args.seconds,
                             args.check)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.trace:
            values, attempted, failed = harness.run_traced(
                inputs, work_dir,
                os.path.join(OUT, f"{args.workload}.trace.jsonl"), args.seed)
        else:
            values, attempted, failed = harness.run_untraced(inputs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    listed = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int,
          check: bool = False) -> dict:
    """One fresh subprocess per workload and run."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if check:
        command.append("--check")
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(command)}: exit {done.returncode}, no result")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    result["wall_s"] = round(time.perf_counter() - started, 1)
    return result


# -- the report ------------------------------------------------------------------------

def run_set(names: list, seeds: list, seconds: float) -> dict:
    """workload -> {"runs": [result per seed], "traced": result}."""
    out = {}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(spawn(name, seed, seconds, 0))
            print(f"  {name} seed {seed}: {runs[-1]['failed']}/"
                  f"{runs[-1]['attempted']} failed, {runs[-1]['wall_s']} s",
                  file=sys.stderr)
        out[name] = {"runs": runs, "traced": spawn(name, seeds[0], seconds, 1)}
        print(f"  {name} traced: {out[name]['traced']['wall_s']} s",
              file=sys.stderr)
    return out


def summary(sets: list, benchmark: dict, seconds: float, seeds: list) -> dict:
    """What ``bench/out/report.json`` keeps (and ``bench/BASELINE.json``
    is a copy of): per workload, every end-to-end metric's median,
    quartiles and spread (q3 - q1 over the median) in each set beside its
    bound, and the per-layer values of each set's traced run."""
    out = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in sets[0]:
        end_to_end = {}
        for m in benchmark["end_to_end"]:
            per_set = []
            for result_set in sets:
                values = [r["metrics"][m["name"]]["value"]
                          for r in result_set[name]["runs"]]
                q1, _, q3 = (statistics.quantiles(values, n=4)
                             if len(values) > 1 else values * 3)
                mid = statistics.median(values)
                per_set.append({"median": mid, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / mid, "values": values})
            end_to_end[m["name"]] = {**m, "sets": per_set}
        results = [r for result_set in sets
                   for r in result_set[name]["runs"] + [result_set[name]["traced"]]]
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {
                m["name"]: {**m, "values": [
                    result_set[name]["traced"]["metrics"][m["name"]]["value"]
                    for result_set in sets]}
                for m in benchmark["per_layer"]},
        }
    return out


def print_report(summed: dict) -> None:
    arrow = {"lower": "v", "higher": "^"}
    for name, w in summed["workloads"].items():
        print(f"\n== {name}: failed_ops_share {w['failed']}/{w['attempted']}"
              f" = {w['failed'] / w['attempted']:.6f} ==")
        print(f"  {'end-to-end metric':<42}{'unit':<7}{'':<3}{'set':>4}"
              f"{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}{'bound':>7}")
        for metric, m in w["end_to_end"].items():
            for i, s in enumerate(m["sets"], 1):
                print(f"  {metric:<42}{m['unit']:<7}{arrow[m['better']]:<3}"
                      f"{i:>4}{s['median']:>14.4f}{s['q1']:>14.4f}"
                      f"{s['q3']:>14.4f}{s['spread']:>8.3f}{m['bound']:>7.2f}")
        print(f"  {'per-layer metric (traced run of each set)':<52}")
        for metric, m in w["per_layer"].items():
            print(f"  {metric:<42}{m['unit']:<7}{arrow[m['better']]:<3}"
                  + "".join(f"{v:>18.4f}" for v in m["values"]))


def sets_agree(summed: dict) -> bool:
    """Two sets of the same code: print each end-to-end median's relative
    change beside its bound; False when one is over its bound or a count
    that must repeat exactly (same seeds in both sets) did not."""
    ok = True
    print("\n== two sets of the same code ==")
    print(f"  {'workload':<16}{'metric':<22}{'set 1':>13}{'set 2':>13}"
          f"{'worse by':>10}{'bound':>7}")
    for name, w in summed["workloads"].items():
        for metric, m in w["end_to_end"].items():
            first, second = m["sets"]
            a, b = first["median"], second["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = ""
            if worse > m["bound"]:
                ok, verdict = False, "  OVER BOUND"
            if (metric in EXACT_END_TO_END
                    and first["values"] != second["values"]):
                ok, verdict = False, "  NOT REPEATED EXACTLY"
            print(f"  {name:<16}{metric:<22}{a:>13.4f}{b:>13.4f}"
                  f"{worse:>+10.3f}{m['bound']:>7.2f}{verdict}")
        for metric, m in w["per_layer"].items():
            a, b = m["values"]
            if is_exact(m) and a != b:
                ok = False
                print(f"  {name:<16}{metric:<42}{a!r} != {b!r}"
                      "  NOT REPEATED EXACTLY")
    return ok


def report(args) -> int:
    benchmark = spec()
    names = ([args.workload] if args.workload
             else [w["name"] for w in benchmark["workloads"]])
    seeds = [args.seed + i for i in range(args.runs)]
    sets = []
    for i in range(args.sets):
        print(f"set {i + 1} of {args.sets}", file=sys.stderr)
        sets.append(run_set(names, seeds, args.seconds))
    summed = summary(sets, benchmark, args.seconds, seeds)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report.json"), "w") as f:
        json.dump(summed, f, indent=1)
        f.write("\n")
    print_report(summed)
    ok = not any(w["failed"] for w in summed["workloads"].values())
    if args.sets == 2:
        ok = sets_agree(summed) and ok
    return 0 if ok else 1


# -- the self-test -----------------------------------------------------------------------

def self_test() -> int:
    """Reduced scale: every workload, both kinds of run; every metric of
    ``BENCHMARK.json`` must come back under its name with its unit."""
    benchmark = spec()
    problems = []
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in benchmark[group]:
            if not NAME.match(entry["name"]):
                problems.append(f"bad name {entry['name']!r} in {group}")
    for w in benchmark["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = spawn(w["name"], 42, 1, trace, check=True)
            if result["exit"] or not result["correct"]:
                problems.append(f"{w['name']} --trace {trace}: exit "
                                f"{result['exit']}, failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in benchmark[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} --trace {trace}: metrics "
                                f"differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{w['name']}: not numbers: {bad}")
            print(f"ok {w['name']} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="make one run and print its JSON result")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--check", action="store_true",
                        help="self-test at reduced scale (with --trace: "
                             "one reduced-scale run)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    if args.check:
        return self_test()
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
