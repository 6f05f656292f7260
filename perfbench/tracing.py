"""Spans around the benchmark's calls into krboot, kept in memory.

A span is (name, start, end, parent, pass id).  Spans nest by call order:
the span open when another starts is its parent.  ``NullTracer`` has the
same interface and records nothing, so the untraced and traced passes run
the same benchmark code.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name, pass_id=None):
        pass

    def end(self):
        pass


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, pass id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._pass_id = None

    def begin(self, name, pass_id=None):
        if pass_id is not None:
            self._pass_id = pass_id
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self._pass_id])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def self_times(self, pass_id) -> dict[str, float]:
        """Seconds per span name for one pass id: duration minus children."""
        child_time = defaultdict(float)
        for _, start, end, parent, pid in self.spans:
            if parent is not None and pid == pass_id:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name] += end - start - child_time[i]
        return dict(out)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
