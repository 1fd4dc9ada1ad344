"""The public face of the system: one embedded AsterixDB-like instance.

``AsterixInstance`` owns a simulated cluster, the metadata catalog, and
the full compile chain (parse -> translate -> optimize -> jobgen -> run).
Both query languages are served; AQL is accepted but flagged deprecated,
matching the paper ("We have now deprecated AQL in favor of SQL++").

    >>> db = AsterixInstance(tmpdir)
    >>> db.execute('CREATE TYPE UserType AS { id: int };')
    >>> db.execute('CREATE DATASET Users(UserType) PRIMARY KEY id;')
    >>> db.execute('INSERT INTO Users ({"id": 1, "name": "ann"});')
    >>> db.query('SELECT VALUE u.name FROM Users u;')
    ['ann']

Layer contract: this is the ONLY module that sees every layer at once.
It parses statements (:mod:`repro.lang`), applies DDL to the catalog
(:mod:`repro.metadata`), and sends DML/queries down the compile chain
(:mod:`repro.algebricks`) onto the simulated cluster
(:mod:`repro.hyracks`).  Nothing below this layer knows about statement
scripts, sessions, or result shaping.  docs/ARCHITECTURE.md walks the
whole pipeline with a traced example.

Observability (docs/OBSERVABILITY.md): ``execute(..., trace=True)``
attaches a :class:`~repro.observability.QueryTrace` to each
:class:`Result` (per-phase spans, fired rewrite rules, per-operator
partition costs, metric deltas); :meth:`AsterixInstance.explain` compiles
without executing and returns a structured
:class:`~repro.observability.ExplainResult` (optimized Algebricks plan +
Hyracks job DAG as dicts and pretty text).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.adm.values import ADateTime
from repro.algebricks import compile_plan, explain as explain_plan, optimize
from repro.analysis import analyze_statement
from repro.common.config import ClusterConfig
from repro.common.errors import AsterixError, MetadataError
from repro.external import HDFSAdapter, LocalFSAdapter, SimulatedHDFS
from repro.functions import set_session_now
from repro.hyracks import ClusterController
from repro.lang import core_ast as ast
from repro.lang.aql.parser import parse_aql
from repro.lang.sqlpp.parser import parse_sqlpp
from repro.lang.translator import Translator
from repro.metadata.catalog import MetadataManager
from repro.observability import (
    ExplainResult,
    QueryTrace,
    access_methods,
    RewriteRecorder,
    Span,
    get_registry,
    job_to_dict,
    maybe_phase,
    plan_to_dict,
)


@dataclass
class Result:
    """Outcome of one statement."""

    kind: str                      # query | dml | ddl | explain
    rows: list = field(default_factory=list)
    message: str = ""
    profile: object = None         # JobProfile for query/dml
    plan: str = ""                 # optimized logical plan (explain)
    warnings: list = field(default_factory=list)
    trace: object = None           # QueryTrace when trace=True

    def __iter__(self):
        return iter(self.rows)


class AsterixInstance:
    """An embedded Big Data Management System instance."""

    def __init__(self, base_dir: str, config: ClusterConfig | None = None,
                 injector=None):
        """``injector`` (a :class:`~repro.resilience.FaultInjector`) wires
        deterministic fault injection through every node's storage, WAL,
        and executor paths; tests and the chaos harness arm it with a
        :class:`~repro.resilience.FaultSchedule` after setup."""
        self.base_dir = base_dir
        self._hdfs: SimulatedHDFS | None = None
        marker = os.path.join(base_dir, "instance.json")
        reopening = os.path.exists(marker)
        if reopening:
            config = self._load_config(marker)
        self.cluster = ClusterController(os.path.join(base_dir, "cluster"),
                                         config, injector=injector)
        if reopening:
            self.metadata = MetadataManager.reopen(
                self.cluster, self._reopen_adapter)
        else:
            self.metadata = MetadataManager(self.cluster)
            self._save_config(marker)

    @staticmethod
    def _load_config(marker: str) -> ClusterConfig:
        import dataclasses
        import json

        from repro.common.config import (
            CostModel,
            NodeConfig,
            ResilienceConfig,
        )

        with open(marker) as f:
            data = json.load(f)

        def section(cls, name):
            # the marker may have been written by a version whose config
            # had options (or whole sections, such as "executor") this one
            # dropped: keep only the current fields of the current sections
            known = {f.name for f in dataclasses.fields(cls)}
            return cls(**{k: v for k, v in data.get(name, {}).items()
                          if k in known})

        return ClusterConfig(
            num_nodes=data["num_nodes"],
            partitions_per_node=data["partitions_per_node"],
            page_size=data["page_size"],
            frame_size=data["frame_size"],
            node=section(NodeConfig, "node"),
            cost=section(CostModel, "cost"),
            resilience=section(ResilienceConfig, "resilience"),
        )

    def _save_config(self, marker: str) -> None:
        import dataclasses
        import json

        os.makedirs(self.base_dir, exist_ok=True)
        with open(marker, "w") as f:
            json.dump(dataclasses.asdict(self.cluster.config), f, indent=2)

    def _reopen_adapter(self, adapter_name: str, props: dict,
                        type_name: str, registry):
        """Rebuild an external-dataset adapter from its catalog record."""
        common = dict(
            format=props.get("format", "adm"),
            delimiter=props.get("delimiter", "|"),
            dataset_type=registry.resolve(type_name),
            type_registry=registry,
        )
        if adapter_name == "localfs":
            return LocalFSAdapter(props["path"], **common)
        if adapter_name == "hdfs":
            return HDFSAdapter(self.hdfs, props["path"], **common)
        raise MetadataError(f"unknown adapter {adapter_name}")

    # -- infrastructure -----------------------------------------------------------

    @property
    def hdfs(self) -> SimulatedHDFS:
        """The simulated HDFS namespace for external datasets."""
        if self._hdfs is None:
            self._hdfs = SimulatedHDFS(os.path.join(self.base_dir, "hdfs"))
        return self._hdfs

    def set_session_now(self, iso_datetime: str) -> None:
        """Pin current_datetime() (deterministic benchmarking)."""
        set_session_now(ADateTime.parse(iso_datetime))

    def close(self) -> None:
        self.cluster.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- execution -------------------------------------------------------------------

    def execute(self, text: str, *, language: str = "sqlpp",
                explain: bool = False,
                enable_index_access: bool = True,
                enable_cost_based: bool = True,
                trace: bool = False) -> Result:
        """Execute a script; returns the LAST statement's result (the
        common REPL convention).  Use :meth:`execute_all` for all of them.

        With ``trace=True`` each Result carries a
        :class:`~repro.observability.QueryTrace` (per-phase timings,
        fired rewrite rules, per-operator partition costs, metric
        deltas) as ``result.trace``.
        """
        results = self.execute_all(text, language=language,
                                   explain=explain,
                                   enable_index_access=enable_index_access,
                                   enable_cost_based=enable_cost_based,
                                   trace=trace)
        return results[-1] if results else Result("ddl", message="empty")

    def query(self, text: str, **kwargs) -> list:
        """Execute and return the last statement's rows."""
        return self.execute(text, **kwargs).rows

    def explain(self, text: str, *, language: str = "sqlpp",
                enable_index_access: bool = True,
                enable_cost_based: bool = True) -> ExplainResult:
        """Compile (but do not run) the LAST statement of ``text``.

        Returns an :class:`~repro.observability.ExplainResult`: the
        optimized Algebricks plan and the generated Hyracks job DAG as
        structured dicts and pretty-printed text, plus the fired-rule
        list and per-phase compile timings.  Works for queries and DML
        in both languages.
        """
        phases = []
        started = time.perf_counter()
        if language == "sqlpp":
            statements = parse_sqlpp(text)
        elif language == "aql":
            statements = parse_aql(text)
        else:
            raise AsterixError(f"unknown language {language!r}")
        phases.append({"name": "parse",
                       "duration_us": (time.perf_counter() - started) * 1e6})
        if not statements:
            raise AsterixError("nothing to explain")
        stmt = statements[-1]
        started = time.perf_counter()
        if isinstance(stmt, (ast.QueryStatement, ast.InsertStatement,
                             ast.DeleteStatement)):
            analyze_statement(stmt, self.metadata)
        phases.append({"name": "analyze",
                       "duration_us": (time.perf_counter() - started) * 1e6})
        translator = Translator(self.metadata)
        started = time.perf_counter()
        if isinstance(stmt, ast.QueryStatement):
            plan = translator.translate_query(stmt.query)
        elif isinstance(stmt, ast.InsertStatement):
            plan = translator.translate_insert(stmt)
        elif isinstance(stmt, ast.DeleteStatement):
            plan = translator.translate_delete(stmt)
        else:
            raise AsterixError(
                f"explain supports queries and DML, not "
                f"{type(stmt).__name__}"
            )
        phases.append({"name": "translate",
                       "duration_us": (time.perf_counter() - started) * 1e6})
        recorder = RewriteRecorder()
        started = time.perf_counter()
        optimized = optimize(plan, self.metadata,
                             enable_index_access=enable_index_access,
                             enable_cost_based=enable_cost_based,
                             recorder=recorder)
        phases.append({"name": "optimize",
                       "duration_us": (time.perf_counter() - started) * 1e6})
        started = time.perf_counter()
        job, _ = compile_plan(optimized, self.metadata,
                              self.cluster.num_partitions)
        phases.append({"name": "jobgen",
                       "duration_us": (time.perf_counter() - started) * 1e6})
        get_registry().counter("api.explains").inc()
        return ExplainResult(
            statement=text.strip(), language=language,
            logical_plan=plan_to_dict(optimized),
            logical_text=explain_plan(optimized),
            job=job_to_dict(job), job_text=job.describe(),
            fired_rules=recorder.fired_rules,
            rewrites=recorder.to_dict(),
            phases=phases,
            access_methods=access_methods(optimized),
        )

    def execute_all(self, text: str, *, language: str = "sqlpp",
                    explain: bool = False,
                    enable_index_access: bool = True,
                    enable_cost_based: bool = True,
                    trace: bool = False) -> list:
        parse_started = time.perf_counter()
        if language == "sqlpp":
            statements = parse_sqlpp(text)
            warnings = []
        elif language == "aql":
            statements = parse_aql(text)
            warnings = ["AQL is deprecated in favor of SQL++"]
        else:
            raise AsterixError(f"unknown language {language!r}")
        parse_us = (time.perf_counter() - parse_started) * 1e6
        results = []
        for stmt in statements:
            qtrace = None
            if trace:
                qtrace = QueryTrace(statement=text.strip(),
                                    language=language)
                # the parser handles the whole script at once; its cost
                # is recorded on every statement's trace, flagged as such
                span = Span("parse", attributes={
                    "scope": "script", "statements": len(statements),
                })
                span.duration_us = parse_us
                qtrace.phases.append(span)
            result = self._execute_one(stmt, explain, enable_index_access,
                                       qtrace,
                                       enable_cost_based=enable_cost_based)
            result.warnings.extend(warnings)
            results.append(result)
        return results

    # -- per-statement dispatch ---------------------------------------------------------

    def _execute_one(self, stmt, explain: bool,
                     enable_index_access: bool,
                     trace: QueryTrace | None = None, *,
                     enable_cost_based: bool = True) -> Result:
        registry = get_registry()
        registry.counter("api.statements").inc()
        translator = Translator(self.metadata)
        if isinstance(stmt, ast.LoadStatement):
            registry.counter("api.dml").inc()
            return self._run_load(stmt, trace)
        if isinstance(stmt, ast.InsertStatement):
            registry.counter("api.dml").inc()
            with maybe_phase(trace, "analyze"):
                analyze_statement(stmt, self.metadata)
            with maybe_phase(trace, "translate"):
                plan = translator.translate_insert(stmt)
            return self._run_plan(plan, "dml", explain,
                                  enable_index_access, trace,
                                  enable_cost_based=enable_cost_based)
        if isinstance(stmt, ast.DeleteStatement):
            registry.counter("api.dml").inc()
            with maybe_phase(trace, "analyze"):
                analyze_statement(stmt, self.metadata)
            with maybe_phase(trace, "translate"):
                plan = translator.translate_delete(stmt)
            return self._run_plan(plan, "dml", explain,
                                  enable_index_access, trace,
                                  enable_cost_based=enable_cost_based)
        if isinstance(stmt, ast.QueryStatement):
            registry.counter("api.queries").inc()
            with maybe_phase(trace, "analyze"):
                analyze_statement(stmt, self.metadata)
            with maybe_phase(trace, "translate"):
                plan = translator.translate_query(stmt.query)
            return self._run_plan(plan, "query", explain,
                                  enable_index_access, trace,
                                  enable_cost_based=enable_cost_based)
        # everything else is DDL against the catalog
        registry.counter("api.ddl").inc()
        if trace is not None:
            trace.kind = "ddl"
        with maybe_phase(trace, "execute",
                         statement=type(stmt).__name__):
            result = self._execute_ddl(stmt)
        result.trace = trace
        return result

    def _execute_ddl(self, stmt) -> Result:
        if isinstance(stmt, ast.CreateDataverse):
            self.metadata.create_dataverse(stmt.name, stmt.if_not_exists)
            return Result("ddl", message=f"dataverse {stmt.name} created")
        if isinstance(stmt, ast.UseDataverse):
            self.metadata.use_dataverse(stmt.name)
            return Result("ddl", message=f"using {stmt.name}")
        if isinstance(stmt, ast.CreateType):
            self.metadata.create_type(stmt)
            return Result("ddl", message=f"type {stmt.name} created")
        if isinstance(stmt, ast.CreateDataset):
            self.metadata.create_dataset(stmt)
            return Result("ddl", message=f"dataset {stmt.name} created")
        if isinstance(stmt, ast.CreateExternalDataset):
            adapter = self._make_adapter(stmt.adapter, stmt.properties,
                                         stmt.type_name)
            self.metadata.create_external_dataset(stmt, adapter)
            return Result("ddl",
                          message=f"external dataset {stmt.name} created")
        if isinstance(stmt, ast.CreateIndex):
            self.metadata.create_index(stmt)
            return Result("ddl", message=f"index {stmt.name} created")
        if isinstance(stmt, ast.DropStatement):
            self._drop(stmt)
            return Result("ddl", message=f"{stmt.kind} {stmt.name} dropped")
        raise AsterixError(f"unhandled statement {type(stmt).__name__}")

    def _drop(self, stmt: ast.DropStatement) -> None:
        if stmt.kind == "dataverse":
            self.metadata.drop_dataverse(stmt.name, stmt.if_exists)
        elif stmt.kind == "type":
            self.metadata.drop_type(stmt.name, stmt.if_exists)
        elif stmt.kind == "dataset":
            self.metadata.drop_dataset(stmt.name, stmt.if_exists)
        elif stmt.kind == "index":
            self.metadata.drop_index(stmt.dataset, stmt.name,
                                     stmt.if_exists)
        else:
            raise MetadataError(f"cannot drop {stmt.kind}")

    def _make_adapter(self, adapter_name: str, props: dict,
                      type_name: str):
        entry_type = None
        registry = self.metadata.type_registry(self.metadata.current)
        if type_name:
            entry_type = registry.resolve(type_name)
        common = dict(
            format=props.get("format", "adm"),
            delimiter=props.get("delimiter", "|"),
            dataset_type=entry_type,
            type_registry=registry,
        )
        if adapter_name == "localfs":
            return LocalFSAdapter(props["path"], **common)
        if adapter_name == "hdfs":
            return HDFSAdapter(self.hdfs, props["path"], **common)
        raise MetadataError(f"unknown adapter {adapter_name}")

    def _run_load(self, stmt: ast.LoadStatement,
                  trace: QueryTrace | None = None) -> Result:
        entry = self.metadata.dataset_entry(stmt.dataset)
        registry = self.metadata.type_registry(entry.dataverse)
        adapter = LocalFSAdapter(
            stmt.path, format=stmt.format,
            delimiter=stmt.properties.get("delimiter", "|"),
            dataset_type=registry.resolve(entry.type_name),
            type_registry=registry,
        )
        with maybe_phase(trace, "translate"):
            plan = Translator(self.metadata).translate_load(stmt, adapter)
        return self._run_plan(plan, "dml", False, True, trace)

    def _run_plan(self, plan, kind: str, explain: bool,
                  enable_index_access: bool,
                  trace: QueryTrace | None = None, *,
                  enable_cost_based: bool = True) -> Result:
        registry = get_registry()
        metrics_before = registry.snapshot() if trace is not None else None
        recorder = trace.rewrites if trace is not None else None
        with maybe_phase(trace, "optimize"):
            optimized = optimize(plan, self.metadata,
                                 enable_index_access=enable_index_access,
                                 enable_cost_based=enable_cost_based,
                                 recorder=recorder)
        plan_text = explain_plan(optimized)
        if trace is not None:
            trace.kind = kind
            trace.plan_text = plan_text
        if explain:
            return Result("explain", plan=plan_text, trace=trace)
        with maybe_phase(trace, "jobgen"):
            job, _ = compile_plan(optimized, self.metadata,
                                  self.cluster.num_partitions)
        with maybe_phase(trace, "execute") as span:
            job_result = self.cluster.run_job(job, span=span)
        profile = job_result.profile
        if trace is not None:
            trace.operators = [op.to_dict() for op in profile.operators]
            trace.simulated_us = profile.simulated_us
            trace.wall_seconds = profile.wall_seconds
            trace.metrics = registry.delta(metrics_before)
            trace.metrics_totals = {
                name: value
                for name, value in registry.snapshot().items()
                if not isinstance(value, dict)
            }
        # MISSING results are not serialized (SQL++ result semantics)
        from repro.adm import MISSING

        rows = [t[0] for t in job_result.tuples if t[0] is not MISSING]
        if kind == "dml":
            count = rows[0] if rows else 0
            return Result("dml", rows=rows, profile=job_result.profile,
                          plan=plan_text,
                          message=f"{count} record(s) processed",
                          trace=trace)
        return Result("query", rows=rows, profile=job_result.profile,
                      plan=plan_text, trace=trace)

    # -- maintenance ---------------------------------------------------------------------

    def flush_dataset(self, name: str) -> None:
        entry = self.metadata.dataset_entry(name)
        self.cluster.flush_dataset(entry.name)

    def checkpoint(self) -> None:
        self.cluster.checkpoint()


def connect(base_dir: str, config: ClusterConfig | None = None,
            injector=None) -> AsterixInstance:
    """Create (or open) an embedded instance under ``base_dir``."""
    return AsterixInstance(base_dir, config, injector=injector)
