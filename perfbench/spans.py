"""In-memory spans around calls into domlab's public API.

The wrappers live here, in the benchmark, so the library itself carries no
tracing code. A span is (name, start, end, parent); a layer's busy time is
the self time of its spans, i.e. duration minus what direct child spans
cover, so layer busy times plus the root's and sections' self time add up
to the traced pass's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def root(self, name: str, start: float, end: float) -> int:
        """Add a span from start to end as the parent of every top span."""
        idx = len(self.names)
        for i, parent in enumerate(self.parents):
            if parent < 0:
                if not start <= self.starts[i] <= self.ends[i] <= end:
                    raise RuntimeError(f"span {self.names[i]} outside root")
                self.parents[i] = idx
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        return idx

    def wrap(self, name: str, fn, counter=None):
        """fn with a span per call; counter(result) returns {count: amount}."""
        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = self.open(name)
            try:
                out = fn(*args, **kw)
            finally:
                self.close(idx)
                self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, amount in counter(out).items():
                    self.counts[key] += amount
            return out
        return traced

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds per span name, inclusive seconds per span name)."""
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for idx, t in enumerate(self.self_times()):
            own[self.names[idx]] += t
            incl[self.names[idx]] += self.ends[idx] - self.starts[idx]
        return own, incl

    def dump(self, path) -> None:
        origin = min(self.starts, default=0.0)
        spans = [{"name": n, "start": s - origin, "end": e - origin,
                  "parent": p}
                 for n, s, e, p in zip(self.names, self.starts, self.ends,
                                       self.parents)]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)

