"""Per-partition dataset storage (paper Fig. 1/2, features 5 and 8).

"AsterixDB's data storage scales linearly through primary key-based hash
partitioning of all datasets.  The data objects in a given dataset are
stored in partitions of LSM-based B+ trees, and local secondary indexing of
the data partitions can be requested by creating any combination of B+
trees, R-trees, and inverted indexes."

A :class:`PartitionStorage` is one such partition on one node: a primary
LSM B+ tree keyed on the primary key holding the serialized records, plus
local secondary indexes that are maintained on every mutation.  Secondary
indexes store (secondary key, primary key) entries only; queries resolve
them to records through :meth:`fetch_many`, which sorts the PKs first — the
reference-[26] trick whose consequence (PK fetch dominating end-to-end
spatial query time) is the punchline of experiment E1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.comparators import tuple_key
from repro.adm.serializer import deserialize, deserialize_fields, serialize
from repro.adm.values import MISSING, APoint, ARectangle
from repro.common.errors import (
    InvalidArgumentError,
    InvalidIndexDDLError,
    MetadataError,
)
from repro.observability.metrics import get_registry
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm import (
    LSMBTree,
    LSMInvertedIndex,
    LSMRTree,
    MergePolicy,
)

SECONDARY_KINDS = ("btree", "rtree", "keyword", "ngram", "array")


@dataclass(frozen=True)
class SecondaryIndexSpec:
    """A ``CREATE INDEX`` request: what to index and how (Fig. 3(a)).

    ``kind == "array"`` is the multi-valued case ("AsterixDB: A Scalable,
    Open Source BDMS"): ``array_path`` names the record field holding the
    array, ``fields`` name fields *of each element* (empty = index the
    element value itself), and every element contributes one
    (element key..., pk...) entry to an LSM B+ tree."""

    name: str
    kind: str                       # btree | rtree | keyword | ngram | array
    fields: tuple                   # field names (composite for btree/array)
    gram_length: int = 3
    array_path: str = ""            # UNNEST path (array kind only)

    def __post_init__(self):
        if self.kind not in SECONDARY_KINDS:
            raise MetadataError(f"unknown index type {self.kind!r}")
        if self.kind == "array":
            if not self.array_path:
                raise InvalidIndexDDLError(
                    "array index needs an UNNEST path")
        elif self.array_path:
            raise InvalidIndexDDLError(
                f"{self.kind} index cannot have an UNNEST path")
        elif not self.fields:
            raise MetadataError("index needs at least one field")
        if self.kind not in ("btree", "array") and len(self.fields) != 1:
            raise MetadataError(f"{self.kind} index takes exactly one field")

    @property
    def key_width(self) -> int:
        """Number of leading secondary-key parts in each stored entry."""
        if self.kind == "array" and not self.fields:
            return 1                # the element value itself is the key
        return len(self.fields)


def field_value(record: dict, path: str):
    """Resolve a (possibly dotted) field path against a record."""
    value = record
    for part in path.split("."):
        if not isinstance(value, dict):
            return MISSING
        value = value.get(part, MISSING)
    return value


def array_element_keys(spec: SecondaryIndexSpec, record: dict):
    """The secondary keys an array index derives from ``record``: one key
    tuple per element of the array at ``spec.array_path``.

    Mirrors UNNEST semantics so index maintenance agrees with the scan
    plan the index search replaces: a MISSING/null/non-array value
    unnests to nothing, and an element whose *first* key field is
    MISSING/null is skipped (no predicate prefix can match it).  Trailing
    MISSING/null key parts are stored verbatim: the ADM comparators give
    them a total order (so LSM merge and the B+ tree stay sorted) while
    ``search_btree``'s band filter drops them from any search that bounds
    those columns (``comparable(MISSING, const)`` is false — exactly the
    null-predicate semantics of the scan plan), and prefix-bounded
    searches never examine the padded columns at all.  That is what makes
    prefix-bounded composite searches sound: every element with a known
    first key field has an entry, so the index is a superset of any
    prefix match.  Duplicate elements yield duplicate keys; the caller's
    (key, pk) composite upsert collapses them, which is also what makes
    maintenance idempotent."""
    array = field_value(record, spec.array_path)
    if not isinstance(array, (list, tuple)):
        return
    for elem in array:
        if spec.fields:
            if not isinstance(elem, dict):
                continue
            key = tuple(field_value(elem, f) for f in spec.fields)
        else:
            key = (elem,)
        if key[0] is MISSING or key[0] is None:
            continue
        yield key


def _trackable(value) -> bool:
    return (isinstance(value, (int, float, str))
            and not isinstance(value, bool))


def _record_synopsis_fields(key, payload):
    """Synopsis extractor for primary indexes: deserializes the stored
    record and reports top-level scalar fields, one level of nested
    scalar fields (dotted paths, so stats cover typical secondary-index
    keys), and array-valued fields (tracked as Unnest fan-out).  Pure
    Python outside the charged I/O path, so flush/merge simulated costs
    are unchanged."""
    record = deserialize(payload)
    if not isinstance(record, dict):
        return None
    out = {}
    for name, value in record.items():
        if isinstance(value, dict):
            for sub, sv in value.items():
                if _trackable(sv):
                    out[f"{name}.{sub}"] = sv
        elif _trackable(value) or isinstance(value, (list, tuple)):
            out[name] = value
    return out


class PartitionStorage:
    """One dataset partition: primary LSM B+ tree + local secondaries."""

    def __init__(self, fm: FileManager, cache: BufferCache,
                 dataset_name: str, partition_id: int, pk_fields: tuple, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 device_hint: int | None = None):
        self.fm = fm
        self.cache = cache
        self.dataset_name = dataset_name
        self.partition_id = partition_id
        self.pk_fields = tuple(pk_fields)
        self.memory_budget_bytes = memory_budget_bytes
        self.merge_policy = merge_policy
        self.device_hint = (partition_id if device_hint is None
                            else device_hint)
        self.primary = LSMBTree(
            fm, cache, self._storage_name("primary"),
            memory_budget_bytes=memory_budget_bytes,
            merge_policy=merge_policy,
            device_hint=self.device_hint,
        )
        self.primary.synopsis_extractor = _record_synopsis_fields
        self.secondaries: dict[str, tuple] = {}   # name -> (spec, index)
        # optional record validator (the dataset's declared type check),
        # installed by the metadata manager at CREATE DATASET time
        self.validator = None

    def _storage_name(self, suffix: str) -> str:
        return f"{self.dataset_name}/p{self.partition_id}/{suffix}"

    @classmethod
    def recover(cls, fm: FileManager, cache: BufferCache,
                dataset_name: str, partition_id: int, pk_fields: tuple,
                specs=(), **kwargs) -> "PartitionStorage":
        """Reopen a partition after a crash: the primary and every
        secondary are rebuilt from their LSM manifests (memory components
        are gone; the caller replays the WAL afterwards)."""
        storage = cls(fm, cache, dataset_name, partition_id, pk_fields,
                      **kwargs)
        storage.primary.load_manifest()
        for spec in specs:
            storage.secondaries[spec.name] = (
                spec, storage._open_secondary(spec, recover=True))
        return storage

    def _open_secondary(self, spec: SecondaryIndexSpec, *,
                        recover: bool = False):
        """The LSM index backing ``spec``: new, or reopened from its
        manifest when ``recover``."""
        extra = {}
        if spec.kind in ("btree", "array"):
            cls = LSMBTree
        elif spec.kind == "rtree":
            cls = LSMRTree
        else:
            cls = LSMInvertedIndex
            extra = dict(tokenizer=spec.kind, gram_length=spec.gram_length)
        return (cls.recover if recover else cls)(
            self.fm, self.cache, self._storage_name(f"idx_{spec.name}"),
            memory_budget_bytes=self.memory_budget_bytes,
            merge_policy=self.merge_policy,
            device_hint=self.device_hint, **extra)

    # -- primary key handling ---------------------------------------------------

    def extract_pk(self, record: dict) -> tuple:
        pk = []
        for name in self.pk_fields:
            value = field_value(record, name)
            if value is MISSING or value is None:
                raise InvalidArgumentError(
                    f"record lacks primary key field {name!r}"
                )
            pk.append(value)
        return tuple(pk)

    # -- secondary index DDL -------------------------------------------------------

    def create_secondary(self, spec: SecondaryIndexSpec,
                         build: bool = True) -> None:
        if spec.name in self.secondaries:
            raise MetadataError(f"index {spec.name} already exists")
        index = self._open_secondary(spec)
        self.secondaries[spec.name] = (spec, index)
        if build:
            for pk, raw in self.primary.scan():
                self._secondary_insert(spec, index, deserialize(raw), pk, 0)

    def drop_secondary(self, name: str) -> None:
        spec_index = self.secondaries.pop(name, None)
        if spec_index is None:
            raise MetadataError(f"no such index {name}")
        spec_index[1].drop()

    # -- mutations ------------------------------------------------------------------

    def insert(self, record: dict, lsn: int = 0) -> tuple:
        """INSERT: duplicate primary keys are an error."""
        if self.validator is not None:
            self.validator(record)
        pk = self.extract_pk(record)
        self.primary.insert_unique(pk, serialize(record), lsn)
        for spec, index in self.secondaries.values():
            self._secondary_insert(spec, index, record, pk, lsn)
        return pk

    def upsert(self, record: dict, lsn: int = 0) -> dict | None:
        """UPSERT (Fig. 3(d)): replace any existing record with the same
        primary key; returns the replaced record (or None)."""
        if self.validator is not None:
            self.validator(record)
        pk = self.extract_pk(record)
        old_raw = self.primary.search(pk)
        old = deserialize(old_raw) if old_raw is not None else None
        if old is not None:
            for spec, index in self.secondaries.values():
                self._secondary_delete(spec, index, old, pk, lsn)
        self.primary.upsert(pk, serialize(record), lsn)
        for spec, index in self.secondaries.values():
            self._secondary_insert(spec, index, record, pk, lsn)
        return old

    def delete(self, pk: tuple, lsn: int = 0) -> dict | None:
        """DELETE by primary key; returns the deleted record (or None)."""
        old_raw = self.primary.search(pk)
        if old_raw is None:
            return None
        old = deserialize(old_raw)
        for spec, index in self.secondaries.values():
            self._secondary_delete(spec, index, old, pk, lsn)
        self.primary.delete(pk, lsn)
        return old

    def _secondary_insert(self, spec, index, record, pk, lsn):
        if spec.kind == "array":
            counter = get_registry().counter("index.array.maintenance.inserts")
            for key in array_element_keys(spec, record):
                index.upsert((*key, *pk), b"", lsn)
                counter.inc()
            return
        values = [field_value(record, f) for f in spec.fields]
        if any(v is MISSING or v is None for v in values):
            return  # null/missing keys are not indexed
        if spec.kind == "btree":
            index.upsert((*values, *pk), b"", lsn)
        elif spec.kind == "rtree":
            point = values[0]
            if not isinstance(point, APoint):
                raise InvalidArgumentError(
                    f"rtree index field {spec.fields[0]} must be a point, "
                    f"got {type(point).__name__}"
                )
            index.insert(ARectangle(point, point),
                         (point.x, point.y, *pk), lsn)
        else:
            index.insert_document(str(values[0]), pk, lsn)

    def _secondary_delete(self, spec, index, record, pk, lsn):
        if spec.kind == "array":
            # keyed on the OLD record's elements, so entries for elements
            # that a shrinking upsert removed are tombstoned too
            counter = get_registry().counter("index.array.maintenance.deletes")
            for key in array_element_keys(spec, record):
                index.delete((*key, *pk), lsn)
                counter.inc()
            return
        values = [field_value(record, f) for f in spec.fields]
        if any(v is MISSING or v is None for v in values):
            return
        if spec.kind == "btree":
            index.delete((*values, *pk), lsn)
        elif spec.kind == "rtree":
            point = values[0]
            index.delete((point.x, point.y, *pk), lsn)
        else:
            index.delete_document(str(values[0]), pk, lsn)

    # -- reads ------------------------------------------------------------------------

    def get(self, pk: tuple, *, fields: frozenset | None = None
            ) -> dict | None:
        """The record under ``pk`` (None if absent); with ``fields``, only
        those top-level fields are built (see :meth:`scan`)."""
        raw = self.primary.search(pk)
        return None if raw is None else deserialize_fields(raw, fields)

    def scan(self, lo=None, hi=None, *, fields: frozenset | None = None,
             **kwargs):
        """Yield (pk, record) over the primary index.  ``fields`` is the
        set of top-level fields the plan reads the record through (the
        optimizer's projection pass); the record is built with only
        those, and None decodes it whole."""
        for pk, raw in self.primary.scan(lo, hi, **kwargs):
            yield pk, deserialize_fields(raw, fields)

    def fetch_many(self, pks, *, sort: bool = True):
        """Resolve primary keys to records.

        ``sort=True`` is the [26] optimization: sorting references before
        fetching turns random primary-index probes into mostly-sequential,
        cache-friendly access.  E1 reports both settings."""
        if sort:
            pks = sorted(pks, key=tuple_key)
        for pk in pks:
            raw = self.primary.search(pk)
            if raw is not None:
                yield pk, deserialize(raw)

    # -- secondary searches ---------------------------------------------------------

    def _index(self, name: str) -> tuple:
        try:
            return self.secondaries[name]
        except KeyError:
            raise MetadataError(f"no such index {name}") from None

    def search_btree(self, index_name: str, lo=None, hi=None, *,
                     lo_inclusive: bool = True, hi_inclusive: bool = True):
        """PKs with lo <= secondary key <= hi.

        Bounds are *prefixes* of the stored (secondary key..., pk...)
        composite keys: a bound of ``("alice",)`` matches every entry whose
        secondary key equals "alice" regardless of primary key, which is why
        the upper bound cannot be passed to the raw scan directly (a longer
        tuple sorts after its prefix).

        Entries whose key is not type-comparable with a bound are skipped:
        the predicate this search stands in for evaluates to null on such
        records (open fields may hold any type), so the scan+select plan
        would drop them."""
        from repro.adm.comparators import comparable_tuples, compare_tuples

        spec, index = self._index(index_name)
        if spec.kind not in ("btree", "array"):
            raise MetadataError(f"{index_name} is not a btree index")
        nfields = spec.key_width
        for key, _ in index.scan(lo, None):
            if lo is not None and not lo_inclusive:
                if compare_tuples(key[:len(lo)], lo) == 0:
                    continue
            if hi is not None:
                c = compare_tuples(key[:len(hi)], hi)
                if c > 0 or (c == 0 and not hi_inclusive):
                    return
            if lo is not None and not comparable_tuples(key, lo):
                continue
            if hi is not None and not comparable_tuples(key, hi):
                continue
            yield tuple(key[nfields:])

    def search_rtree(self, index_name: str, window: ARectangle):
        """PKs of records whose indexed point lies in the window."""
        spec, index = self._index(index_name)
        if spec.kind != "rtree":
            raise MetadataError(f"{index_name} is not an rtree index")
        for key in index.search(window):
            point = APoint(key[0], key[1])
            if window.contains_point(point):
                yield tuple(key[2:])

    def search_keyword(self, index_name: str, text: str):
        """PKs of records containing all tokens of ``text``."""
        spec, index = self._index(index_name)
        if spec.kind not in ("keyword", "ngram"):
            raise MetadataError(f"{index_name} is not an inverted index")
        return index.search_conjunctive(text)

    # -- lifecycle --------------------------------------------------------------------

    def flush_all(self) -> None:
        for index in self.indexes():
            index.flush()

    def indexes(self) -> list:
        """The primary and every secondary LSM index."""
        return [self.primary, *(i for _, i in self.secondaries.values())]

    def durable_lsn(self) -> int:
        """Replay point for recovery: the min durable LSN across the
        primary and all secondaries (anything newer must be replayed)."""
        return min(index.durable_lsn() for index in self.indexes())

    def count(self) -> int:
        return sum(1 for _ in self.primary.scan())

    def statistics(self):
        """This partition's primary-index synopsis (see
        :mod:`repro.storage.lsm.synopsis`), or None."""
        return self.primary.synopsis()

    def statistics_version(self) -> tuple:
        """A cheap fingerprint of the statistics-relevant state — used by
        the catalog to cache dataset rollups between mutations."""
        return (len(self.primary.components), len(self.primary.memory),
                self.primary.stats.flushes, self.primary.stats.merges)

    def drop(self) -> None:
        for index in self.indexes():
            index.drop()
        self.secondaries.clear()
