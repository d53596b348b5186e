"""In-memory span recorder for the traced (``--trace 1``) runs.

A span is ``(name, start_ns, end_ns, parent, rid)``: ``parent`` is the
index of the span that caused it (``None`` for a root) and ``rid`` the
request id that spans of one serve request share.  Times are
``time.perf_counter_ns`` readings, which on Linux come from
``CLOCK_MONOTONIC`` and so line up across the client and the server
process.  A span's name starts with its layer (``serve.queue``).

Self time of a span is its duration minus the part of its interval
that its children cover.  When children nest inside their parent and
siblings do not overlap, the self times of a tree add up to the root's
duration exactly; :meth:`Tracer.selftime_ratio` reports how far they
are from that, which is the trace's consistency check.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: the traced run fails when the self times of the span trees miss the
#: root durations by more than this share
SELF_TIME_TOLERANCE = 0.05


class Tracer:
    """Spans as parallel lists, appended in the order they open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list = []
        self.rids: list = []

    def add(self, name: str, start_ns: int, end_ns: int, parent=None,
            rid=None) -> int:
        """Record one finished span; returns its index."""
        self.names.append(name)
        self.starts.append(int(start_ns))
        self.ends.append(int(end_ns))
        self.parents.append(parent)
        self.rids.append(rid)
        return len(self.names) - 1

    @contextlib.contextmanager
    def span(self, name: str, parent=None, rid=None):
        """Time the body as one span; yields the span's index (children
        opened inside pass it as ``parent``)."""
        idx = self.add(name, time.perf_counter_ns(), 0, parent, rid)
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter_ns()

    def duration_ns(self, idx: int) -> int:
        return self.ends[idx] - self.starts[idx]

    def self_times_ns(self) -> list[int]:
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                children[parent].append(idx)
        out = []
        for idx in range(len(self.names)):
            lo, hi = self.starts[idx], self.ends[idx]
            covered = 0
            cursor = lo
            for s, e in sorted((self.starts[c], self.ends[c])
                               for c in children.get(idx, ())):
                s, e = max(s, cursor), min(e, hi)
                if e > s:
                    covered += e - s
                    cursor = e
            out.append((hi - lo) - covered)
        return out

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parents) if p is None]

    def selftime_ratio(self) -> float:
        """Sum of all self times over the sum of root durations."""
        total_root = sum(self.duration_ns(i) for i in self.roots())
        if total_root <= 0:
            return 0.0
        return sum(self.self_times_ns()) / total_root

    def name_self_ns(self) -> dict[str, int]:
        """Self time summed per span name."""
        out: dict[str, int] = defaultdict(int)
        for name, st in zip(self.names, self.self_times_ns()):
            out[name] += st
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps(
                    {"i": i, "name": self.names[i],
                     "start_ns": self.starts[i], "end_ns": self.ends[i],
                     "parent": self.parents[i], "rid": self.rids[i]})
                    + "\n")
