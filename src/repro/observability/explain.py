"""Structured EXPLAIN: logical plans and Hyracks job DAGs as dicts.

``AsterixInstance.explain(query)`` returns an :class:`ExplainResult`
holding both compiler artifacts the paper's Fig. 5 pipeline produces:

* the optimized Algebricks logical plan — a nested dict mirroring the
  operator tree (``plan_to_dict``), plus the classic indented text; and
* the generated Hyracks job — operators and connector edges as flat
  lists (``job_to_dict``), plus :meth:`JobSpecification.describe` text;

together with the rewrite-rule firings and per-phase compile timings, so
"why is my query slow" and "why didn't my index get picked" are both
answerable without running the job.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


def _value_to_plain(value):
    """Render an operator field for the structured plan."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_value_to_plain(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)         # a read's projected field names
    if isinstance(value, dict):
        return {str(k): _value_to_plain(v) for k, v in value.items()}
    return repr(value)           # LExpr / AggCall / adm values


def plan_to_dict(op) -> dict:
    """A logical operator tree as nested dicts (inputs recurse)."""
    out = {"operator": type(op).__name__, "label": op.describe()}
    est = getattr(op, "est_card", None)
    if est is not None:
        out["estimated_cardinality"] = est
    if dataclasses.is_dataclass(op):
        for f in dataclasses.fields(op):
            if f.name == "inputs":
                continue
            out[f.name] = _value_to_plain(getattr(op, f.name))
    out["inputs"] = [plan_to_dict(child) for child in op.inputs]
    return out


def job_to_dict(job) -> dict:
    """A Hyracks :class:`JobSpecification` as operator/edge lists."""
    return {
        "operators": [
            {
                "id": op_id,
                "name": repr(op),
                "partitions": (op.partition_count
                               if op.partition_count is not None
                               else "cluster-width"),
                **({"estimated_cardinality": est}
                   if (est := getattr(op, "estimated_cardinality",
                                      None)) is not None else {}),
            }
            for op_id, op in enumerate(job.operators)
        ],
        "edges": [
            {
                "producer": e.producer,
                "consumer": e.consumer,
                "port": e.port,
                "connector": repr(e.connector),
            }
            for e in job.edges
        ],
    }


def access_methods(root) -> list:
    """How each data source in an optimized plan is read: one dict per
    scan/search operator, in plan (top-down) order.  This is the "why
    didn't my index get picked" answer at a glance — ``method`` is
    ``primary-scan``, ``primary-index``, or ``<kind>-index`` with the
    index name attached."""
    from repro.algebricks import logical as L

    out = []
    for op in L.walk(root):
        if isinstance(op, L.DataSourceScan):
            out.append({"dataset": op.dataset, "method": "primary-scan"})
        elif isinstance(op, L.PrimaryIndexSearch):
            out.append({"dataset": op.dataset, "method": "primary-index"})
        elif isinstance(op, L.SecondaryIndexSearch):
            out.append({
                "dataset": op.dataset,
                "method": f"{op.index_kind}-index",
                "index": op.index_name,
            })
        elif isinstance(op, L.ExternalScan):
            out.append({"dataset": op.dataset, "method": "external-scan"})
    return out


@dataclass
class ExplainResult:
    """Both halves of the compiled query, structured and pretty."""

    statement: str = ""
    language: str = "sqlpp"
    logical_plan: dict = field(default_factory=dict)
    logical_text: str = ""
    job: dict = field(default_factory=dict)
    job_text: str = ""
    fired_rules: list = field(default_factory=list)
    rewrites: dict = field(default_factory=dict)
    phases: list = field(default_factory=list)       # [{name, duration_us}]
    access_methods: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "language": self.language,
            "logical_plan": self.logical_plan,
            "job": self.job,
            "fired_rules": list(self.fired_rules),
            "rewrites": dict(self.rewrites),
            "phases": [dict(p) for p in self.phases],
            "access_methods": [dict(m) for m in self.access_methods],
        }

    def pretty(self) -> str:
        lines = [f"-- optimized logical plan ({self.language}) --",
                 self.logical_text,
                 "-- hyracks job --",
                 self.job_text]
        if self.access_methods:
            lines.append("-- access methods --")
            for m in self.access_methods:
                via = f" via {m['index']}" if "index" in m else ""
                lines.append(f"  {m['dataset']}: {m['method']}{via}")
        if self.fired_rules:
            lines.append("-- fired rewrite rules --")
            lines.append("  " + ", ".join(self.fired_rules))
        if self.phases:
            lines.append("-- compile phases --")
            for p in self.phases:
                lines.append(f"  {p['name']:<10} {p['duration_us']:10.1f} us")
        return "\n".join(lines)
