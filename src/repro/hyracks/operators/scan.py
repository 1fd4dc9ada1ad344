"""Source operators: dataset scans, external scans, literals."""

from __future__ import annotations

from repro.hyracks.job import OperatorDescriptor


class EmptyTupleSourceOp(OperatorDescriptor):
    """Algebricks' ETS: the single empty tuple that roots every plan
    (INSERT payload construction starts from it)."""

    num_inputs = 0
    partition_count = 1
    name = "empty-tuple-source"

    def run(self, ctx, partition, inputs):
        return [()]


class InMemorySourceOp(OperatorDescriptor):
    """A constant collection source (literal FROM sources, test rigs)."""

    num_inputs = 0
    partition_count = 1
    name = "in-memory-source"

    def __init__(self, tuples: list):
        self.tuples = [tuple(t) if isinstance(t, (list, tuple)) else (t,)
                       for t in tuples]

    def run(self, ctx, partition, inputs):
        yield from self.tuples
        ctx.charge_cpu(len(self.tuples))


class DatasetScanOp(OperatorDescriptor):
    """Full scan of a dataset partition: emits (pk fields..., record).

    Runs at full width; partition p scans the dataset's storage partition
    p on whichever node hosts it — the shared-nothing scan of Fig. 1.
    ``fields`` (the plan's projection, None for the whole record) is
    passed to storage, which builds only those top-level fields."""

    num_inputs = 0
    name = "dataset-scan"

    def __init__(self, dataset: str, fields: frozenset | None = None):
        self.dataset = dataset
        self.fields = fields

    def run(self, ctx, partition, inputs):
        """Incremental scan: a pipelined stage pulls tuples one frame at
        a time instead of materializing the whole partition."""
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        count = 0
        for pk, record in storage.scan(fields=self.fields):
            count += 1
            yield (*pk, record)
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(count)
        ctx.cost.tuples_out += count

    def __repr__(self):
        return f"dataset-scan({self.dataset})"


class ExternalScanOp(OperatorDescriptor):
    """Scan an external dataset in situ (feature 6, Fig. 3(b)).

    The adapter yields (split_index, record) splits; partition p reads the
    splits assigned to it round-robin, which is how parallel reads of
    HDFS blocks / local files are modeled."""

    num_inputs = 0
    name = "external-scan"

    def __init__(self, adapter):
        self.adapter = adapter      # repro.external adapter object

    def run(self, ctx, partition, inputs):
        num_partitions = ctx.node.cluster_num_partitions
        count = 0
        for split_index, record in self.adapter.read_splits():
            if split_index % num_partitions != partition:
                continue
            count += 1
            yield (record,)
        # adapters track bytes read; charge sequential page equivalents
        pages = self.adapter.take_bytes_read() // ctx.node.fm.page_size + 1
        ctx.charge_io(0, 0, pages, 0)
        ctx.charge_cpu(count)
        ctx.cost.tuples_out += count

    def __repr__(self):
        return f"external-scan({self.adapter!r})"
