#!/usr/bin/env python3
"""Paired A/B benchmark of the working tree against a git revision.

    python3 tools/ab.py <rev> [--workload W ...] [--pairs N] [--seed S]
                        [--seconds T] [--claim WORKLOAD:METRIC ...]

``<rev>`` (the parent) and the working tree (the change: tracked files
via ``git stash create``, which moves no ref, plus every untracked file
that ``.gitignore`` does not exclude, listed in the report header) are
exported into temporary directories, so both sides run from fresh
checkouts and an interrupted run leaves nothing behind in the repository.
Per workload (default: all of ``BENCHMARK.json``) it runs N pairs of
``bench/run.py --workload W --seed s --seconds T --trace 0``, seeds S to
S+N-1, alternating which side runs first (N must be even, so each order
runs equally often), and prints for each end-to-end metric both medians,
change / parent, the pairs the change won, the parent's interquartile
range and a verdict against the metric's bound, then the ``ops_per_s``
ratio within each order, so an order effect shows.  The verdict is
``unresolved`` when the parent's runs spread wider than the bound (IQR
above bound x parent median), unless every change run beats every parent
run or loses to every one: such a median says nothing either way.
``--claim W:M`` checks a claimed gain on end-to-end metric M of workload
W (the runs are untraced, so they report no per-layer metric): ``claim
met`` needs the change to win at least 9 of every 10 pairs and the
medians to differ, in the better direction, by more than the parent IQR.
Exit status 1: a median worse than its bound, a failed operation, or a
claim not met.
Only subprocesses; nothing is imported from ``src/`` or ``bench/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str, root: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev: str, dst: str, root: str = ROOT) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=root,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dst], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def export_change(dst: str, root: str = ROOT) -> list:
    """Export the working tree into ``dst``: tracked files with their
    uncommitted edits, plus the untracked, not-ignored files (returned)."""
    export(git("stash", "create", root=root) or "HEAD", dst, root)
    untracked = [name for name in git("ls-files", "-z", "--others",
                                      "--exclude-standard",
                                      root=root).split("\0") if name]
    for name in untracked:
        os.makedirs(os.path.dirname(os.path.join(dst, name)), exist_ok=True)
        shutil.copy2(os.path.join(root, name), os.path.join(dst, name))
    return untracked


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, cwd=tree).stdout
    return json.loads(out.strip().splitlines()[-1])


def _values(runs: list, name: str) -> list:
    return [r["metrics"][name]["value"] for r in runs]


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def _beats(metric: dict, a: float, b: float) -> bool:
    return a > b if metric["better"] == "higher" else a < b


def compare(metrics: list, parent: list, change: list) -> tuple[list, bool]:
    """Rows of the report for one workload, and whether none is worse
    than its bound (an unresolved metric is not counted either way)."""
    rows, ok = [], True
    for m in metrics:
        p, c = _values(parent, m["name"]), _values(change, m["name"])
        pm, cm = statistics.median(p), statistics.median(c)
        ratio = cm / pm if pm else (1.0 if cm == pm else float("inf"))
        higher = m["better"] == "higher"
        worse = ratio < 1 - m["bound"] if higher else ratio > 1 + m["bound"]
        wins = sum(_beats(m, ci, pi) for pi, ci in zip(p, c))
        iqr = _iqr(p)
        if iqr > m["bound"] * abs(pm) and not (
                all(_beats(m, ci, pi) for ci in c for pi in p)
                or all(_beats(m, pi, ci) for ci in c for pi in p)):
            verdict = "unresolved"
        else:
            verdict = "WORSE" if worse else "ok"
        rows.append((m["name"], m["bound"], pm, cm, ratio,
                     f"{wins}/{len(p)}", iqr, verdict))
        ok = ok and verdict != "WORSE"
    return rows, ok


def check_claim(metric: dict, parent: list, change: list) -> tuple[bool, str]:
    """Whether a claimed gain on ``metric`` holds: the change wins at
    least 9 of every 10 pairs and the medians differ, in the better
    direction, by more than the parent IQR; and the numbers behind it."""
    p, c = _values(parent, metric["name"]), _values(change, metric["name"])
    wins = sum(_beats(metric, ci, pi) for pi, ci in zip(p, c))
    gap = statistics.median(c) - statistics.median(p)
    if metric["better"] != "higher":
        gap = -gap
    iqr = _iqr(p)
    met = wins * 10 >= 9 * len(p) and gap > iqr
    return met, (f"{wins}/{len(p)} wins, median gap {gap:.4g},"
                 f" parent IQR {iqr:.4g}")


def order_ratios(parent: list, change: list) -> tuple[float, float]:
    """Change / parent median of ``ops_per_s`` over the pairs the parent
    ran first (even indexes) and over those the change ran first (odd)."""
    def ratio(first: int) -> float:
        p = [r["metrics"]["ops_per_s"]["value"] for r in parent[first::2]]
        c = [r["metrics"]["ops_per_s"]["value"] for r in change[first::2]]
        pm = statistics.median(p)
        return statistics.median(c) / pm if pm else float("nan")
    return ratio(0), ratio(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be even, so each side runs first equally"
                     " often")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    # runs are untraced, so they report the end-to-end metrics only
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claims = [claim.partition(":")[::2] for claim in args.claim]
    for w, m in claims:
        if w not in workloads or m not in metrics:
            parser.error(f"--claim {w}:{m}: not a run workload and an"
                         " end-to-end metric of BENCHMARK.json")
    seconds = args.seconds or spec["run_seconds"]
    sha = git("rev-parse", "--short", args.rev)
    tmp = tempfile.mkdtemp(prefix="ab-")
    parent, change = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
    try:
        os.mkdir(parent)
        os.mkdir(change)
        export(sha, parent)
        untracked = export_change(change)
        print(f"change: working tree + {len(untracked)} untracked file(s)"
              + "".join(f"\n  {name}" for name in untracked))
        ok = True
        for w in workloads:
            runs = {parent: [], change: []}
            for i in range(args.pairs):
                order = (parent, change) if i % 2 == 0 else (change, parent)
                for tree in order:
                    runs[tree].append(bench(tree, w, args.seed + i, seconds))
            failed = sum(r["failed"] for rs in runs.values() for r in rs)
            rows, in_bound = compare(spec["end_to_end"], runs[parent],
                                     runs[change])
            ok = ok and in_bound and failed == 0
            print(f"\n{w}: parent {sha} vs working tree, {args.pairs} pairs,"
                  f" seeds {args.seed}-{args.seed + args.pairs - 1},"
                  f" {seconds:g} s, failed ops {failed}")
            print(f"{'metric':<20} {'bound':>5} {'parent':>12} {'change':>12}"
                  f" {'ratio':>7} {'wins':>6} {'parent IQR':>11}  verdict")
            for name, bound, pm, cm, ratio, wins, iqr, verdict in rows:
                print(f"{name:<20} {bound:>5g} {pm:>12.6g} {cm:>12.6g}"
                      f" {ratio:>7.3f} {wins:>6} {iqr:>11.4g}  {verdict}")
            first_p, first_c = order_ratios(runs[parent], runs[change])
            print(f"ops_per_s ratio by order: parent first {first_p:.3f},"
                  f" change first {first_c:.3f}")
            for m in (m for cw, m in claims if cw == w):
                met, detail = check_claim(metrics[m], runs[parent],
                                          runs[change])
                print(f"claim {w}:{m}: claim {'met' if met else 'not met'}"
                      f" ({detail})")
                ok = ok and met
        print("\nverdict:", "pass" if ok else "FAIL")
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
