"""Join operators: hybrid hash join and nested-loop join.

The hash join is the partitioned-parallel workhorse (build on port 1,
probe on port 0): under its frame budget it is a classic in-memory hash
join; over budget it grace-partitions both sides to run files and recurses
per partition pair — so E4 can push joins far past memory and watch the
I/O grow gracefully instead of the operator falling over.

Join kinds: inner, left outer (missing-padded, per SQL++), left semi
(what quantified expressions over datasets decorrelate into), and left
anti (NOT EXISTS).
"""

from __future__ import annotations

from repro.adm.values import MISSING, fnv1a_bytes
from repro.hyracks.expressions import RuntimeExpr, compile_predicate
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.runfile import RunFileWriter

JOIN_KINDS = ("inner", "leftouter", "leftsemi", "leftanti")


class HybridHashJoinOp(OperatorDescriptor):
    """Equi-join on key fields; port 0 = probe/left, port 1 = build/right.

    Key matching follows SQL++ equality: a key containing MISSING or null
    never matches anything (``a = b`` is unknown, and only True joins),
    matching what the nested-loop join's ``eq`` predicate does —
    important now that the optimizer rewrites computed equi-keys
    (``ON m.authorId = u.id``) into hash joins via fresh key variables.
    Unknown-keyed tuples are screened out before build/probe: build-side
    ones are dropped (they can never appear in any output), probe-side
    ones short-circuit to their unmatched outcome (padding for left
    outer, pass-through for left anti).
    """

    num_inputs = 2
    name = "hybrid-hash-join"
    streaming = False     # pipeline breaker: the build side must be
                          # complete before the probe can start

    def __init__(self, left_keys: list[int], right_keys: list[int],
                 kind: str = "inner",
                 residual: RuntimeExpr | None = None,
                 memory_frames: int | None = None,
                 right_width: int | None = None,
                 build_side: int = 1):
        if kind not in JOIN_KINDS:
            raise ValueError(f"unknown join kind {kind!r}")
        if build_side not in (0, 1):
            raise ValueError(f"build_side must be 0 or 1, got {build_side}")
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.kind = kind
        self.residual = residual
        self.memory_frames = memory_frames
        self.right_width = right_width  # for outer padding
        #: which input the hash table is built on (1 = the classic
        #: build-on-right default; 0 = build on the left when the
        #: optimizer estimates it is the smaller input).  Output is
        #: byte-identical either way — only the spill threshold and
        #: memory footprint change.
        self.build_side = build_side
        self.spill_rounds = 0           # observability for E4
        self._residual_pred = None      # compiled residual predicate

    def prepare(self, config):
        if self.residual is not None:
            self._residual_pred = compile_predicate(self.residual)

    def _residual_ok(self, joined) -> bool:
        return self.residual is None or self._residual_pred(joined)

    @staticmethod
    def _has_unknown_key(tup, fields) -> bool:
        for i in fields:
            v = tup[i]
            if v is MISSING or v is None:
                return True
        return False

    def run(self, ctx, partition, inputs):
        left, right = inputs
        pad_width = (self.right_width if self.right_width is not None
                     else (len(right[0]) if right else 0))
        # screen unknown keys once, before spill partitioning, so the
        # grace recursion only ever sees matchable tuples
        out = []
        if any(self._has_unknown_key(t, self.right_keys) for t in right):
            right = [t for t in right
                     if not self._has_unknown_key(t, self.right_keys)]
        screened_left = [t for t in left
                         if self._has_unknown_key(t, self.left_keys)]
        if screened_left:
            left = [t for t in left
                    if not self._has_unknown_key(t, self.left_keys)]
            if self.kind == "leftouter":
                padding = (MISSING,) * pad_width
                out.extend(t + padding for t in screened_left)
            elif self.kind == "leftanti":
                out.extend(screened_left)
        desired = (self.memory_frames if self.memory_frames is not None
                   else ctx.config.node.join_memory_frames)
        grant = ctx.acquire_memory(desired, label="join")
        try:
            budget = max(2, grant.frames * ctx.frame_size)
            out.extend(self._join(ctx, left, right, budget, depth=0,
                                  pad_width=pad_width))
        finally:
            ctx.release_memory(grant)
        ctx.cost.tuples_out += len(out)
        return out

    def _join(self, ctx, left, right, budget, depth, pad_width):
        build = left if self.build_side == 0 else right
        if len(build) <= budget or depth >= 8:
            return self._in_memory_join(ctx, left, right, pad_width)
        # grace partitioning: split both sides by key hash into fan-out
        # buckets spilled to run files, then recurse bucket by bucket
        self.spill_rounds += 1
        fan_out = max(2, min(16, (len(right) + budget - 1) // budget))
        seed = 0x5151 + depth
        lk, rk = tuple(self.left_keys), tuple(self.right_keys)
        left_parts = [RunFileWriter(ctx, f"hj_l{depth}") for _ in range(fan_out)]
        right_parts = [RunFileWriter(ctx, f"hj_r{depth}")
                       for _ in range(fan_out)]
        for tup in left:
            h = fnv1a_bytes(ctx.key_bytes(tup, lk), seed=seed)
            ctx.charge_hash(1)
            left_parts[h % fan_out].write(tup)
        for tup in right:
            h = fnv1a_bytes(ctx.key_bytes(tup, rk), seed=seed)
            ctx.charge_hash(1)
            right_parts[h % fan_out].write(tup)
        out = []
        for lw, rw in zip(left_parts, right_parts):
            lr, rr = lw.finish(), rw.finish()
            try:
                lpart, rpart = list(lr), list(rr)
            finally:
                lr.close()               # idempotent after exhaustion
                rr.close()
            out.extend(self._join(ctx, lpart, rpart, budget, depth + 1,
                                  pad_width))
        return out

    def _in_memory_join(self, ctx, left, right, pad_width):
        if self.build_side == 0:
            return self._in_memory_join_build_left(ctx, left, right,
                                                   pad_width)
        lk, rk = tuple(self.left_keys), tuple(self.right_keys)
        table: dict[bytes, list] = {}
        for tup in right:
            key = ctx.key_bytes(tup, rk)
            ctx.charge_hash(1)
            table.setdefault(key, []).append(tup)
        out = []
        padding = (MISSING,) * pad_width
        kind = self.kind
        for tup in left:
            key = ctx.key_bytes(tup, lk)
            ctx.charge_hash(1)
            matched = False
            for rtup in table.get(key, ()):
                joined = tup + rtup
                if not self._residual_ok(joined):
                    continue
                matched = True
                if kind == "inner" or kind == "leftouter":
                    out.append(joined)
                elif kind == "leftsemi":
                    out.append(tup)
                    break
                elif kind == "leftanti":
                    break
            if not matched:
                if kind == "leftouter":
                    out.append(tup + padding)
                elif kind == "leftanti":
                    out.append(tup)
        ctx.charge_cpu(len(left) + len(right))
        return out

    def _in_memory_join_build_left(self, ctx, left, right, pad_width):
        """Build on the LEFT input, probe with the right — chosen by the
        optimizer when the left is estimated smaller.  Matches are
        gathered per left tuple (in right-input order) and emitted in a
        final left-major pass, so the output — order included — is
        byte-identical to the build-on-right path; only the hash-table
        size (and with it the grace-spill threshold) differs.  Per-tuple
        hash and CPU charges are symmetric with the default path, so
        in-memory simulated cost is identical too."""
        lk, rk = tuple(self.left_keys), tuple(self.right_keys)
        table: dict[bytes, list] = {}
        for i, tup in enumerate(left):
            key = ctx.key_bytes(tup, lk)
            ctx.charge_hash(1)
            table.setdefault(key, []).append(i)
        matches: list[list] = [[] for _ in left]
        for rtup in right:
            key = ctx.key_bytes(rtup, rk)
            ctx.charge_hash(1)
            for i in table.get(key, ()):
                matches[i].append(rtup)
        out = []
        padding = (MISSING,) * pad_width
        kind = self.kind
        for i, tup in enumerate(left):
            matched = False
            for rtup in matches[i]:
                joined = tup + rtup
                if not self._residual_ok(joined):
                    continue
                matched = True
                if kind == "inner" or kind == "leftouter":
                    out.append(joined)
                elif kind == "leftsemi":
                    out.append(tup)
                    break
                elif kind == "leftanti":
                    break
            if not matched:
                if kind == "leftouter":
                    out.append(tup + padding)
                elif kind == "leftanti":
                    out.append(tup)
        ctx.charge_cpu(len(left) + len(right))
        return out

    def __repr__(self):
        build = "" if self.build_side == 1 else ",build=left"
        return (f"hash-join[{self.kind}{build}]({self.left_keys}="
                f"{self.right_keys})")


class NestedLoopJoinOp(OperatorDescriptor):
    """Arbitrary-predicate join (non-equi conditions, e.g. spatial or
    range).  Port 1 (inner) is broadcast to every partition."""

    num_inputs = 2
    name = "nested-loop-join"

    def __init__(self, condition: RuntimeExpr | None, kind: str = "inner",
                 right_width: int | None = None):
        if kind not in JOIN_KINDS:
            raise ValueError(f"unknown join kind {kind!r}")
        self.condition = condition
        self.kind = kind
        self.right_width = right_width
        self._cond_pred = None          # compiled condition predicate

    def prepare(self, config):
        if self.condition is not None:
            self._cond_pred = compile_predicate(self.condition)

    def run(self, ctx, partition, inputs):
        left, right = inputs
        out = []
        pad_width = (self.right_width if self.right_width is not None
                     else (len(right[0]) if right else 0))
        padding = (MISSING,) * pad_width
        pred = self._cond_pred           # None = cross product
        for ltup in left:
            matched = False
            for rtup in right:
                joined = ltup + rtup
                if pred is not None and not pred(joined):
                    continue
                matched = True
                if self.kind in ("inner", "leftouter"):
                    out.append(joined)
                elif self.kind == "leftsemi":
                    out.append(ltup)
                    break
                elif self.kind == "leftanti":
                    break
            if not matched:
                if self.kind == "leftouter":
                    out.append(ltup + padding)
                elif self.kind == "leftanti":
                    out.append(ltup)
        ctx.charge_cpu(len(left) * max(1, len(right)))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"nl-join[{self.kind}]({self.condition!r})"
