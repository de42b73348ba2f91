"""In-memory spans recorded by the benchmark around its calls into symquot.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index
of the enclosing span (None at the top) and ``item`` the id of the item
being served. Spans stay in memory during the run and are written out
once, when it ends. Counts (classes, elements) are attached per item.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Untraced runs: every span is a shared no-op context."""

    item_id = None

    def span(self, name):
        return _NULL

    def count(self, key, value):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.item_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.item_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def count(self, key, value):
        self.counts.setdefault(self.item_id, {})[key] = value

    def durations(self, name) -> list[tuple[int, float]]:
        """(item, seconds) for every span called ``name``."""
        return [(s[4], s[2] - s[1]) for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        """One JSON line per span, with its self time (span minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item,
                    "self_ms": (end - start - child_time[idx]) * 1e3,
                }) + "\n")
