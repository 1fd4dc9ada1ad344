#!/usr/bin/env python3
"""Model-drift gate: the benchmark's deterministic metrics, compared exactly.

``simulated_us_per_op``, ``write_amp`` and ``space_amp`` are counts made
by the program; for one commit, seed and size they repeat bit for bit.
This runs each workload of ``BENCHMARK.json`` once at reduced scale,
untraced (``bench/run.py`` as a subprocess, last stdout line = JSON),
requires ``failed == 0`` and ``attempted > 0``, and requires the three
metrics to *equal* ``tools/model_gate_expected.json``.

Three aggregates per workload miss a change that moves cost between two
operators and nets to zero, so the gate also runs a fixed in-process
corpus of jobs (the twelve ``bench/queries.py`` queries over a small
``bench/datagen.py`` load, a spilling sort, join and group-by, a
multi-row UPSERT and a DELETE; one job per access path over a fourth
instance with a composite B+ tree, an R-tree, a keyword and an n-gram
index) and requires, per job, a digest of the
rows, ``simulated_us``, each operator's name, ``tuples_out`` and
``elapsed_us``, and the stage list (ops, width, pipelined) to equal
``tools/model_gate_jobs.json``.  A mismatch names the first differing
job and operator.

A deliberate cost-model or storage-format change regenerates both files
in the same PR (``python3 tools/model_gate.py --write``) and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tools", "model_gate_expected.json")
EXPECTED_JOBS = os.path.join(ROOT, "tools", "model_gate_jobs.json")
METRICS = ("simulated_us_per_op", "write_amp", "space_amp")

#: run on a cluster whose operators get two frames of 16 tuples each,
#: so the sort, the join and the group-by all spill to run files
SPILL_STATEMENTS = (
    ("spill_sort", "SELECT VALUE m.messageId FROM Messages m "
                   "ORDER BY m.message;"),
    ("spill_join", "SELECT VALUE [u.alias, m.messageId] "
                   "FROM Users u JOIN Messages m ON m.authorId = u.id;"),
    ("spill_group", "SELECT authorId, COUNT(*) AS n FROM Messages m "
                    "GROUP BY m.authorId AS authorId;"),
    ("upsert", 'UPSERT INTO Users ([{"id": 3, "alias": "u3b", "age": 70}, '
               '{"id": 5000, "alias": "new", "age": 19}]);'),
    ("delete", "DELETE FROM Messages m WHERE m.authorId < 4;"),
)

#: one index of every kind the benchmark's DDL lacks, and a job per
#: access path the optimizer can pick over them
PLACES_DDL = """
CREATE TYPE PlaceType AS { id: int };
CREATE DATASET Places(PlaceType) PRIMARY KEY id;
CREATE INDEX byAgeCity ON Places(age, city);
CREATE INDEX byLoc ON Places(loc) TYPE RTREE;
CREATE INDEX byText ON Places(text) TYPE KEYWORD;
CREATE INDEX byName ON Places(name) TYPE NGRAM(3);
"""
WORDS = ("river", "park", "market", "bridge", "harbor", "garden")
CITIES = ("irvine", "riverside", "sandiego", "la", "sf")
ACCESS_STATEMENTS = (
    ("rtree_window", "SELECT VALUE p.id FROM Places p WHERE spatial_intersect"
     "(p.loc, create_rectangle(create_point(2.0, 2.0), "
     "create_point(6.0, 9.0)));"),
    ("keyword_text", "SELECT VALUE p.id FROM Places p "
                     "WHERE ftcontains(p.text, 'market harbor');"),
    # the whole field text: an n-gram search misses a word that is not
    ("ngram_name", "SELECT VALUE p.id FROM Places p "
                   "WHERE ftcontains(p.name, 'harborside 4');"),
    ("composite_prefix", "SELECT VALUE p.id FROM Places p "
                         "WHERE p.age = 32 AND p.city >= 'la';"),
    ("pk_and_secondary", "SELECT VALUE p.id FROM Places p WHERE p.id >= 40 "
     "AND p.id < 120 AND p.age = 25 AND ftcontains(p.text, 'park');"),
    ("incomparable_pk", "SELECT VALUE p.id FROM Places p "
                        "WHERE p.id = 3 AND p.id = 'a' AND p.age = 3;"),
)


def places_data(n: int) -> dict:
    from repro.adm import APoint

    return {"Places": [
        {"id": i, "age": 18 + i * 7 % 45, "city": CITIES[i % 5],
         "loc": APoint(float(i % 20), float(i * 3 % 20)),
         "text": f"{WORDS[i % 6]} {WORDS[i * 5 % 6]} view",
         "name": f"{WORDS[i % 6]}side {i}"} for i in range(n)]}


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


def observe(result) -> dict:
    """What one job must repeat exactly: no wall time, only the model."""
    profile = result.profile
    rows = json.dumps(result.rows, sort_keys=True, default=repr)
    return {
        "rows": hashlib.sha256(rows.encode()).hexdigest()[:16],
        "simulated_us": profile.simulated_us,
        "operators": [[op.name, op.total_tuples_out, op.elapsed_us]
                      for op in profile.operators],
        "stages": [[s["ops"], s["width"], s["pipelined"]]
                   for s in profile.stages],
    }


def run_corpus() -> dict:
    """Job name -> :func:`observe` of each job of the fixed corpus."""
    sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
    import datagen
    import queries
    from repro import ClusterConfig, NodeConfig, connect

    def config(frame_size, frames):
        return ClusterConfig(frame_size=frame_size, node=NodeConfig(
            buffer_cache_pages=64, memory_component_pages=8,
            sort_memory_frames=frames, join_memory_frames=frames,
            group_memory_frames=frames))

    def jobs_of(statements):
        return [queries.Query(name, text, True, ())
                for name, text in statements]

    instances = (
        (config(128, 32), queries.DDL["analytic_mix"],
         datagen.analytic_data(42, 50, 400), queries.ANALYTIC),
        (config(128, 32), queries.DDL["tpcch_mix"], datagen.tpcch_data(42, 3),
         queries.TPCCH),
        (config(16, 2), queries.DDL["analytic_mix"],
         datagen.analytic_data(42, 200, 1600), jobs_of(SPILL_STATEMENTS)),
        (config(128, 32), PLACES_DDL, places_data(200),
         jobs_of(ACCESS_STATEMENTS)),
    )
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (cfg, ddl, data, statements) in enumerate(instances):
            db = connect(os.path.join(tmp, str(i)), cfg)
            try:
                db.execute(ddl)
                # like the benchmark: nine tenths flushed, the rest in
                # the memory components
                for dataset, records in data.items():
                    cut = len(records) * 9 // 10
                    for record in records[:cut]:
                        db.cluster.insert_record("Default." + dataset, record)
                    db.flush_dataset(dataset)
                    for record in records[cut:]:
                        db.cluster.insert_record("Default." + dataset, record)
                for q in statements:
                    result = db.execute(q.text)
                    oracle = q.name in queries.QUERY_NAMES
                    if oracle and not queries.rows_match(
                            result.rows, queries.expected_rows(q.name, data),
                            q.ordered):
                        sys.exit(f"{q.name}: rows differ from the oracle")
                    jobs[q.name] = observe(result)
            finally:
                db.close()
    return json.loads(json.dumps(jobs))


def first_difference(expected: dict, measured: dict) -> str | None:
    """The first differing job, and in it the first differing operator."""
    for name in list(expected) + [n for n in measured if n not in expected]:
        want, got = expected.get(name), measured.get(name)
        if want == got:
            continue
        if want is None or got is None:
            return f"job {name}: expected {want!r}, measured {got!r}"
        for i, (a, b) in enumerate(zip(want["operators"], got["operators"])):
            if a != b:
                return (f"job {name}, operator {i} {a[0]}: expected "
                        f"[name, tuples_out, elapsed_us] = {a}, measured {b}")
        for key in ("operators", "stages", "simulated_us", "rows"):
            if want[key] != got[key]:
                return (f"job {name}: {key} expected {want[key]!r}, "
                        f"measured {got[key]!r}")
    return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    measured = {w: measure(w) for w in workloads}
    jobs = run_corpus()
    if sys.argv[1:] == ["--write"]:
        for path, value in ((EXPECTED, measured), (EXPECTED_JOBS, jobs)):
            with open(path, "w") as f:
                json.dump(value, f, indent=2)
                f.write("\n")
        return 0
    with open(EXPECTED) as f:
        expected = json.load(f)
    with open(EXPECTED_JOBS) as f:
        expected_jobs = json.load(f)
    ok = True
    for w in workloads:
        for m in METRICS:
            want = expected.get(w, {}).get(m)
            if want != measured[w][m]:
                ok = False
                print(f"{w}.{m}: expected {want!r}, "
                      f"measured {measured[w][m]!r}")
    difference = first_difference(expected_jobs, jobs)
    if difference is not None:
        ok = False
        print(difference)
    if ok:
        print(f"model gate: {len(workloads) * len(METRICS)} numbers equal, "
              f"{len(jobs)} jobs equal per operator")
        return 0
    print("model clock drifted; if the change is deliberate, regenerate "
          "with `python3 tools/model_gate.py --write` and say why")
    return 1


if __name__ == "__main__":
    sys.exit(main())
