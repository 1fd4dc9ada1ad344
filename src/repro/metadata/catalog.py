"""The metadata catalog: dataverses, types, datasets, indexes.

AsterixDB stores its catalog in system datasets inside a ``Metadata``
dataverse; so does this reproduction — every DDL operation updates both
the in-memory maps (the fast path the compiler reads) and the mirrored
``Metadata.*`` datasets, so ``SELECT * FROM Metadata.Dataset`` style
introspection works through the ordinary query path.

The manager implements the optimizer's
:class:`~repro.algebricks.rules.MetadataView` protocol plus what the
translator needs (``dataset_exists``, ``external_adapter``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adm.types import (
    Field,
    MultisetType,
    ObjectType,
    OrderedListType,
    TypeReference,
    TypeRegistry,
)
from repro.algebricks.rules import MetadataView
from repro.common.errors import DuplicateError, MetadataError, UnknownEntityError
from repro.lang import core_ast as ast
from repro.storage.dataset_storage import SecondaryIndexSpec

METADATA_DATAVERSE = "Metadata"
DEFAULT_DATAVERSE = "Default"


@dataclass
class DatasetEntry:
    name: str                      # qualified: dataverse.name
    dataverse: str
    type_name: str
    pk_fields: tuple
    kind: str = "internal"         # internal | external
    adapter: object = None         # external only
    indexes: dict = field(default_factory=dict)   # name -> spec


@dataclass
class Dataverse:
    name: str
    types: TypeRegistry = field(default_factory=TypeRegistry)
    datasets: dict = field(default_factory=dict)


class MetadataManager(MetadataView):
    """The catalog, mirrored into Metadata.* system datasets."""

    SYSTEM_DATASETS = (
        ("Metadata.Dataverse", ("DataverseName",)),
        ("Metadata.Datatype", ("DataverseName", "DatatypeName")),
        ("Metadata.Dataset", ("DataverseName", "DatasetName")),
        ("Metadata.Index", ("DataverseName", "DatasetName", "IndexName")),
    )

    def __init__(self, cluster):
        self.cluster = cluster
        self.dataverses: dict[str, Dataverse] = {}
        self.current = DEFAULT_DATAVERSE
        for name, pk in self.SYSTEM_DATASETS:
            cluster.create_dataset(name, pk)
        self._bootstrap()

    def _bootstrap(self):
        self._register_system_entries()
        self._mirror_dataverse(METADATA_DATAVERSE)
        self.create_dataverse(DEFAULT_DATAVERSE, if_not_exists=True)

    def _register_system_entries(self):
        meta = Dataverse(METADATA_DATAVERSE)
        self.dataverses[METADATA_DATAVERSE] = meta
        for qualified, pk in self.SYSTEM_DATASETS:
            local = qualified.split(".", 1)[1]
            meta.datasets[local] = DatasetEntry(
                qualified, METADATA_DATAVERSE, "any", tuple(pk)
            )

    # -- restart ------------------------------------------------------------------

    @classmethod
    def reopen(cls, cluster, adapter_factory) -> "MetadataManager":
        """Rebuild the catalog after a restart.

        The catalog *is* data (the Metadata.* datasets), so restart is
        bootstrapped recovery: (1) reopen the system datasets from their
        LSM manifests and replay the WAL into them; (2) read the catalog
        records back; (3) reopen every user dataset they describe (with
        its indexes and type validator); (4) replay the WAL again, now
        reaching the user partitions.  Replay is idempotent, so the
        double pass is safe.

        ``adapter_factory(adapter_name, properties, type_name,
        type_registry)`` rebuilds external-dataset adapters.
        """
        mgr = cls.__new__(cls)
        mgr.cluster = cluster
        mgr.dataverses = {}
        mgr.current = DEFAULT_DATAVERSE

        # phase 1: the catalog recovers itself
        for qualified, pk in cls.SYSTEM_DATASETS:
            cluster.recover_dataset(qualified, pk)
        for node in cluster.nodes:
            node.replay_wal()
        mgr._register_system_entries()

        # phase 2: read the catalog back
        from repro.lang.sqlpp.parser import SQLPPParser

        for _, record in cluster.scan_dataset("Metadata.Dataverse"):
            name = record["DataverseName"]
            if name not in mgr.dataverses:
                mgr.dataverses[name] = Dataverse(name)
        for _, record in cluster.scan_dataset("Metadata.Datatype"):
            dv = mgr.dataverses[record["DataverseName"]]
            closed = "" if record.get("IsOpen", True) else "CLOSED "
            ddl = (f"CREATE TYPE `{record['DatatypeName']}` AS "
                   f"{closed}{record['Definition']};")
            stmt = SQLPPParser(ddl).parse_statements()[0]
            dv.types.add(mgr._build_type(record["DatatypeName"],
                                         stmt.body))

        indexes_by_dataset: dict[tuple, list] = {}
        for _, record in cluster.scan_dataset("Metadata.Index"):
            key = (record["DataverseName"], record["DatasetName"])
            indexes_by_dataset.setdefault(key, []).append(
                SecondaryIndexSpec(
                    record["IndexName"],
                    record["IndexStructure"].lower(),
                    tuple(record["SearchKey"]),
                    record.get("GramLength", 3),
                    array_path=record.get("UnnestList", [""])[0],
                )
            )

        # phase 3: reopen user datasets
        for _, record in cluster.scan_dataset("Metadata.Dataset"):
            dv_name = record["DataverseName"]
            local = record["DatasetName"]
            dv = mgr.dataverses[dv_name]
            qualified = f"{dv_name}.{local}"
            if record["DatasetType"] == "EXTERNAL":
                adapter = adapter_factory(
                    record["Adapter"], record["AdapterProperties"],
                    record["DatatypeName"], dv.types,
                )
                dv.datasets[local] = DatasetEntry(
                    qualified, dv_name, record["DatatypeName"], (),
                    kind="external", adapter=adapter,
                )
                continue
            specs = indexes_by_dataset.get((dv_name, local), [])
            entry = DatasetEntry(
                qualified, dv_name, record["DatatypeName"],
                tuple(record["PrimaryKey"]),
                indexes={s.name: s for s in specs},
            )
            cluster.recover_dataset(qualified, entry.pk_fields, specs)
            mgr._set_validator(
                qualified,
                mgr._validator(dv.types, record["DatatypeName"]),
            )
            dv.datasets[local] = entry

        # phase 4: replay reaches the user partitions now
        for node in cluster.nodes:
            node.replay_wal()
        return mgr

    # -- naming ------------------------------------------------------------------

    def qualify(self, name: str) -> str:
        """Resolve a possibly-dotted name against the current dataverse."""
        if "." in name:
            return name
        return f"{self.current}.{name}"

    def _split(self, name: str) -> tuple[str, str]:
        qualified = self.qualify(name)
        dv, _, local = qualified.partition(".")
        return dv, local

    def _dataverse(self, name: str) -> Dataverse:
        try:
            return self.dataverses[name]
        except KeyError:
            raise UnknownEntityError(f"unknown dataverse {name}") from None

    # -- dataverse DDL ---------------------------------------------------------------

    def create_dataverse(self, name: str,
                         if_not_exists: bool = False) -> None:
        if name in self.dataverses:
            if if_not_exists:
                return
            raise DuplicateError(f"dataverse {name} exists")
        self.dataverses[name] = Dataverse(name)
        self._mirror_dataverse(name)

    def use_dataverse(self, name: str) -> None:
        self._dataverse(name)
        self.current = name

    def drop_dataverse(self, name: str, if_exists: bool = False) -> None:
        if name == METADATA_DATAVERSE:
            raise MetadataError("cannot drop the Metadata dataverse")
        dv = self.dataverses.get(name)
        if dv is None:
            if if_exists:
                return
            raise UnknownEntityError(f"unknown dataverse {name}")
        for entry in list(dv.datasets.values()):
            self.drop_dataset(entry.name)
        del self.dataverses[name]
        self.cluster.delete_record("Metadata.Dataverse", (name,))
        if self.current == name:
            self.current = DEFAULT_DATAVERSE

    # -- type DDL ------------------------------------------------------------------------

    def create_type(self, stmt: ast.CreateType) -> None:
        dv_name, local = self._split(stmt.name)
        dv = self._dataverse(dv_name)
        if local in dv.types:
            if stmt.if_not_exists:
                return
            raise DuplicateError(f"type {stmt.name} exists")
        dtype = self._build_type(local, stmt.body)
        dv.types.add(dtype)
        self.cluster.insert_record("Metadata.Datatype", {
            "DataverseName": dv_name,
            "DatatypeName": local,
            "Derived": repr(dtype),
            # re-parseable DDL body: instance restart re-executes this
            "Definition": render_type_ddl(stmt.body),
            "IsOpen": stmt.body.is_open,
        })

    def _build_type(self, name: str, body: ast.TypeExpr):
        if body.kind == "named":
            return TypeReference(body.name)
        if body.kind == "ordered":
            return OrderedListType(self._build_type("", body.item))
        if body.kind == "multiset":
            return MultisetType(self._build_type("", body.item))
        fields = tuple(
            Field(f.name, self._build_type("", f.type_name), f.optional)
            for f in body.fields
        )
        return ObjectType(name or "<anon>", fields, is_open=body.is_open)

    def drop_type(self, name: str, if_exists: bool = False) -> None:
        dv_name, local = self._split(name)
        dv = self._dataverse(dv_name)
        if local not in dv.types:
            if if_exists:
                return
            raise UnknownEntityError(f"unknown type {name}")
        dv.types.remove(local)
        self.cluster.delete_record("Metadata.Datatype", (dv_name, local))

    def type_registry(self, dataverse: str) -> TypeRegistry:
        return self._dataverse(dataverse).types

    # -- dataset DDL -----------------------------------------------------------------------

    def create_dataset(self, stmt: ast.CreateDataset) -> DatasetEntry:
        dv_name, local = self._split(stmt.name)
        dv = self._dataverse(dv_name)
        if local in dv.datasets:
            if stmt.if_not_exists:
                return dv.datasets[local]
            raise DuplicateError(f"dataset {stmt.name} exists")
        registry = dv.types
        registry.resolve(stmt.type_name)   # must exist
        qualified = f"{dv_name}.{local}"
        entry = DatasetEntry(qualified, dv_name, stmt.type_name,
                             tuple(stmt.primary_key))
        validator = self._validator(registry, stmt.type_name)
        self.cluster.create_dataset(qualified, entry.pk_fields)
        self._set_validator(qualified, validator)
        dv.datasets[local] = entry
        self.cluster.insert_record("Metadata.Dataset", {
            "DataverseName": dv_name,
            "DatasetName": local,
            "DatatypeName": stmt.type_name,
            "DatasetType": "INTERNAL",
            "PrimaryKey": list(entry.pk_fields),
        })
        return entry

    def create_external_dataset(self, stmt: ast.CreateExternalDataset,
                                adapter) -> DatasetEntry:
        dv_name, local = self._split(stmt.name)
        dv = self._dataverse(dv_name)
        if local in dv.datasets:
            raise DuplicateError(f"dataset {stmt.name} exists")
        dv.types.resolve(stmt.type_name)
        qualified = f"{dv_name}.{local}"
        entry = DatasetEntry(qualified, dv_name, stmt.type_name, (),
                             kind="external", adapter=adapter)
        dv.datasets[local] = entry
        self.cluster.insert_record("Metadata.Dataset", {
            "DataverseName": dv_name,
            "DatasetName": local,
            "DatatypeName": stmt.type_name,
            "DatasetType": "EXTERNAL",
            "PrimaryKey": [],
            # adapter config, so restart can rebuild the adapter
            "Adapter": stmt.adapter,
            "AdapterProperties": dict(stmt.properties),
        })
        return entry

    def _validator(self, registry: TypeRegistry, type_name: str):
        def validate(record):
            registry.validate(record, type_name)

        return validate

    def _set_validator(self, qualified: str, validator) -> None:
        for p in range(self.cluster.num_partitions):
            node = self.cluster.node_of_partition(p)
            node.get_partition(qualified, p).validator = validator

    def drop_dataset(self, name: str, if_exists: bool = False) -> None:
        dv_name, local = self._split(name)
        dv = self._dataverse(dv_name)
        entry = dv.datasets.get(local)
        if entry is None:
            if if_exists:
                return
            raise UnknownEntityError(f"unknown dataset {name}")
        if entry.kind == "internal":
            self.cluster.drop_dataset(entry.name)
        del dv.datasets[local]
        self.cluster.delete_record("Metadata.Dataset", (dv_name, local))

    def create_index(self, stmt: ast.CreateIndex) -> None:
        entry = self.dataset_entry(stmt.dataset)
        if entry.kind != "internal":
            raise MetadataError("cannot index an external dataset")
        if stmt.name in entry.indexes:
            if stmt.if_not_exists:
                return
            raise DuplicateError(f"index {stmt.name} exists")
        spec = SecondaryIndexSpec(stmt.name, stmt.kind,
                                  tuple(stmt.fields), stmt.gram_length,
                                  array_path=stmt.array_path or "")
        self.cluster.create_index(entry.name, spec)
        entry.indexes[stmt.name] = spec
        dv_name, local = self._split(stmt.dataset)
        self.cluster.insert_record("Metadata.Index", {
            "DataverseName": dv_name,
            "DatasetName": local,
            "IndexName": stmt.name,
            "IndexStructure": stmt.kind.upper(),
            "SearchKey": list(stmt.fields),
            "GramLength": stmt.gram_length,
            "UnnestList": [spec.array_path],
        })

    def drop_index(self, dataset: str, index_name: str,
                   if_exists: bool = False) -> None:
        entry = self.dataset_entry(dataset)
        if index_name not in entry.indexes:
            if if_exists:
                return
            raise UnknownEntityError(f"unknown index {index_name}")
        self.cluster.drop_index(entry.name, index_name)
        del entry.indexes[index_name]
        dv_name, local = self._split(dataset)
        self.cluster.delete_record("Metadata.Index",
                                   (dv_name, local, index_name))

    # -- lookups ------------------------------------------------------------------------------

    def dataset_entry(self, name: str) -> DatasetEntry:
        dv_name, local = self._split(name)
        dv = self._dataverse(dv_name)
        try:
            return dv.datasets[local]
        except KeyError:
            raise UnknownEntityError(f"unknown dataset {name}") from None

    def dataset_exists(self, name: str) -> bool:
        try:
            self.dataset_entry(name)
            return True
        except UnknownEntityError:
            return False

    def dataset_type(self, name: str) -> ObjectType:
        entry = self.dataset_entry(name)
        return self.type_registry(entry.dataverse).resolve(entry.type_name)

    # -- MetadataView protocol (the optimizer's lens) ------------------------------------------

    def pk_fields(self, dataset: str) -> tuple:
        return self.dataset_entry(dataset).pk_fields

    def secondary_indexes(self, dataset: str) -> list:
        return list(self.dataset_entry(dataset).indexes.values())

    def is_external(self, dataset: str) -> bool:
        return self.dataset_entry(dataset).kind == "external"

    def external_adapter(self, dataset: str):
        return self.dataset_entry(dataset).adapter

    def dataset_statistics(self, dataset: str):
        """Dataset-level statistics rollup for the cost-based optimizer:
        the per-partition primary-index synopses (harvested at LSM
        flush/merge time and recovered from the manifests after restart)
        merged into one :class:`~repro.storage.lsm.synopsis
        .ComponentSynopsis`.  Returns None for external datasets or when
        no statistics exist yet.

        The merge is cheap (a few dict folds per field) but not free, so
        rollups are cached against a fingerprint of each partition's
        component state; any flush, merge, or memory-component write
        invalidates it."""
        try:
            entry = self.dataset_entry(dataset)
        except UnknownEntityError:
            return None
        if entry.kind != "internal":
            return None
        qualified = entry.name
        versions, partitions = [], []
        try:
            for p in range(self.cluster.num_partitions):
                node = self.cluster.node_of_partition(p)
                storage = node.get_partition(qualified, p)
                versions.append(storage.statistics_version())
                partitions.append(storage)
        except (KeyError, AttributeError):
            return None
        cache = getattr(self, "_stats_cache", None)
        if cache is None:
            cache = self._stats_cache = {}
        key = tuple(versions)
        cached = cache.get(qualified)
        if cached is not None and cached[0] == key:
            return cached[1]
        from repro.storage.lsm.synopsis import ComponentSynopsis

        rollup = ComponentSynopsis.merge(
            s.statistics() for s in partitions)
        cache[qualified] = (key, rollup)
        return rollup

    # -- mirrors ----------------------------------------------------------------------------------

    def _mirror_dataverse(self, name: str) -> None:
        self.cluster.insert_record("Metadata.Dataverse",
                                   {"DataverseName": name})


def render_type_ddl(body: ast.TypeExpr) -> str:
    """Pretty-print a TypeExpr back to CREATE TYPE body syntax (the
    inverse of the parser; instance restart re-parses it)."""
    if body.kind == "named":
        return body.name
    if body.kind == "ordered":
        return f"[{render_type_ddl(body.item)}]"
    if body.kind == "multiset":
        return f"{{{{{render_type_ddl(body.item)}}}}}"
    fields = ", ".join(
        f"`{f.name}`: {render_type_ddl(f.type_name)}"
        + ("?" if f.optional else "")
        for f in body.fields
    )
    return "{ " + fields + " }"
