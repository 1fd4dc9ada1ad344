"""Connector descriptors: how tuples move between operator partitions.

These are Hyracks' data-redistribution primitives; the Algebricks physical
layer decides which one each edge needs based on partitioning properties
(paper Fig. 5's "data-partition-aware" optimization is exactly the art of
inserting as few of the expensive ones as possible).

Every connector charges the simulated clock for the tuples it moves to a
*different* partition — local (same-partition) delivery is free, which is
what makes partition-property-preserving plans measurably cheaper.
"""

from __future__ import annotations

import heapq

from repro.adm.values import hash_value
from repro.hyracks.job import ConnectorDescriptor
from repro.hyracks.operators.sort import compile_order_key
from repro.observability.metrics import get_registry


class OneToOneConnector(ConnectorDescriptor):
    """Partition i feeds consumer partition i (pipelining; no data moves)."""

    name = "1:1"

    def route(self, producer_outputs, num_consumers, ctx):
        outputs = [list(part) for part in producer_outputs]
        if len(outputs) == num_consumers:
            return outputs
        if len(outputs) == 1 and num_consumers > 1:
            # widening a singleton source: everything stays on partition 0
            return [outputs[0]] + [[] for _ in range(num_consumers - 1)]
        # narrowing to a single consumer: concatenate (gather)
        if num_consumers == 1:
            merged = []
            for i, part in enumerate(outputs):
                if i != 0:
                    ctx.charge_network(len(part))
                merged.extend(part)
            return [merged]
        raise ValueError(
            f"1:1 connector with {len(outputs)} producers and "
            f"{num_consumers} consumers"
        )


class HashPartitionConnector(ConnectorDescriptor):
    """Hash-partition on key fields — the workhorse behind parallel joins,
    grouping, and primary-key routing of INSERT/UPSERT."""

    name = "hash"

    def __init__(self, key_fields: list[int]):
        self.key_fields = list(key_fields)

    def route(self, producer_outputs, num_consumers, ctx):
        outputs = [[] for _ in range(num_consumers)]
        cols = tuple(self.key_fields)
        # the job's shared key cache (when routing inside the executor)
        # is keyed by value: each distinct key is hashed once per job, and
        # the consuming join/group-by reuses its bytes
        cache = getattr(ctx, "key_cache", None)
        num_producers = len(producer_outputs)
        for src, part in enumerate(producer_outputs):
            for tup in part:
                if cache is not None:
                    target = cache.key_hash(tup, cols) % num_consumers
                else:
                    key = tuple(tup[i] for i in cols)
                    target = hash_value(key) % num_consumers
                ctx.charge_hash(1)
                if target != (src % num_consumers) \
                        or num_producers != num_consumers:
                    ctx.charge_network(1)
                outputs[target].append(tup)
        return outputs

    def __repr__(self):
        return f"hash({self.key_fields})"


class BroadcastConnector(ConnectorDescriptor):
    """Every producer tuple goes to every consumer partition (small build
    sides of joins)."""

    name = "broadcast"

    def route(self, producer_outputs, num_consumers, ctx):
        merged = []
        for part in producer_outputs:
            merged.extend(part)
        ctx.charge_network(len(merged) * max(0, num_consumers - 1))
        return [list(merged) for _ in range(num_consumers)]


class MergeConnector(ConnectorDescriptor):
    """Gather sorted partitions into one globally sorted stream (the final
    exchange under a parallel ORDER BY)."""

    name = "sort-merge"

    def __init__(self, key_fields: list[int], descending: list[bool] | None = None):
        self.key_fields = list(key_fields)
        self.descending = list(descending or [False] * len(key_fields))

    def route(self, producer_outputs, num_consumers, ctx):
        if num_consumers != 1:
            raise ValueError("merge connector gathers to one partition")
        for i, part in enumerate(producer_outputs):
            if i != 0:
                ctx.charge_network(len(part))
        # compile the composite key once over all partitions' tuples, so
        # heap pushes reuse one cheap closure
        key = compile_order_key(
            self.key_fields, self.descending,
            [t for part in producer_outputs for t in part])
        iters = [iter(part) for part in producer_outputs]
        heap = []
        pushes = 0
        for rank, it in enumerate(iters):
            for tup in it:
                heap.append((key(tup), rank, id(tup), tup))
                pushes += 1
                break
        heapq.heapify(heap)
        merged = []
        while heap:
            _, rank, _, tup = heapq.heappop(heap)
            merged.append(tup)
            ctx.charge_compare(1)
            for nxt in iters[rank]:
                heapq.heappush(heap, (key(nxt), rank, id(nxt), nxt))
                pushes += 1
                break
        if pushes:
            get_registry().counter("sort.key_cache_hits").inc(pushes)
        return [merged]

    def __repr__(self):
        return f"merge({self.key_fields})"


class RangePartitionConnector(ConnectorDescriptor):
    """Range-partition on one key field given split points (parallel global
    sorts use this; split points come from sampling)."""

    name = "range"

    def __init__(self, key_field: int, split_points: list):
        self.key_field = key_field
        self.split_points = list(split_points)

    def route(self, producer_outputs, num_consumers, ctx):
        from repro.adm.comparators import compare

        outputs = [[] for _ in range(num_consumers)]
        for part in producer_outputs:
            for tup in part:
                value = tup[self.key_field]
                target = 0
                for split in self.split_points:
                    if compare(value, split) > 0:
                        target += 1
                    else:
                        break
                target = min(target, num_consumers - 1)
                ctx.charge_network(1)
                outputs[target].append(tup)
        return outputs

    def __repr__(self):
        return f"range(${self.key_field})"
