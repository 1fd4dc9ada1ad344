"""Spans recorded from outside the program, around calls into each layer.

A span is (name, start, end, parent, op_id); the spans of one op share
``op_id``.  They are kept in memory and written out once, when the run
ends.  A layer's *self time* is its span minus the part its children
cover (children of one parent never overlap here: one client, and the
executor's worker threads are joined inside ``run_job``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        #: [name, start_ns, end_ns, parent index or -1, op_id]
        self.spans: list = []
        self._stack: list = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1,
                  self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def durations_us(self, name: str, first: int = 0) -> list:
        """Durations of the spans called ``name``, from span ``first`` on."""
        return [(s[2] - s[1]) / 1e3 for s in self.spans[first:]
                if s[0] == name]

    def self_times_us(self) -> dict:
        """name -> total self time (span minus its direct children)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out: dict = {}
        for s, covered in zip(self.spans, child_ns):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1] - covered) / 1e3
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "op_id": op_id}) + "\n")
