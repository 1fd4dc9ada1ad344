#!/usr/bin/env python3
"""Model-drift gate: the benchmark's deterministic metrics, compared exactly.

``simulated_us_per_op``, ``write_amp`` and ``space_amp`` are counts made
by the program; for one commit, seed and size they repeat bit for bit.
This runs each workload of ``BENCHMARK.json`` once at reduced scale,
untraced (``bench/run.py`` as a subprocess, last stdout line = JSON),
requires ``failed == 0`` and ``attempted > 0``, and requires the three
metrics to *equal* ``tools/model_gate_expected.json``.  A deliberate
cost-model or storage-format change regenerates that file in the same
PR (``python3 tools/model_gate.py --write``) and says why.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tools", "model_gate_expected.json")
METRICS = ("simulated_us_per_op", "write_amp", "space_amp")


def measure(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "42", "--seconds", "1",
         "--trace", "0", "--check"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    run = json.loads(out.strip().splitlines()[-1])
    if run["failed"] != 0 or run["attempted"] <= 0:
        sys.exit(f"{workload}: failed={run['failed']} "
                 f"attempted={run['attempted']}")
    return {m: run["metrics"][m]["value"] for m in METRICS}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    measured = {w: measure(w) for w in workloads}
    if sys.argv[1:] == ["--write"]:
        with open(EXPECTED, "w") as f:
            json.dump(measured, f, indent=2)
            f.write("\n")
        return 0
    with open(EXPECTED) as f:
        expected = json.load(f)
    if measured == expected:
        print(f"model gate: {len(workloads) * len(METRICS)} numbers equal")
        return 0
    for w in workloads:
        for m in METRICS:
            want = expected.get(w, {}).get(m)
            if want != measured[w][m]:
                print(f"{w}.{m}: expected {want!r}, "
                      f"measured {measured[w][m]!r}")
    print("model clock drifted; if the change is deliberate, regenerate "
          "with `python3 tools/model_gate.py --write` and say why")
    return 1


if __name__ == "__main__":
    sys.exit(main())
