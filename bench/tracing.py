"""In-memory spans recorded by the benchmark around calls into condet.

A span has a name, a start, an end and the index of the span that was open
when it started (its parent). Spans are kept in a list and written out once,
at the end of a run. Every span is timed, so the untraced run can take its
end-to-end timings from the same code; only an enabled tracer keeps them.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, parent: Optional[int]) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        keep = self.enabled
        sp = Span(name, self._open[-1] if (keep and self._open) else None)
        if keep:
            self.spans.append(sp)
            self._open.append(len(self.spans) - 1)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            if keep:
                self._open.pop()

    def root_name(self, index: int) -> str:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return self.spans[index].name

    def durations(self, name: str, root: Optional[str] = None) -> list[float]:
        """Durations of the spans called ``name``, optionally only those under ``root``."""
        return [
            sp.duration
            for i, sp in enumerate(self.spans)
            if sp.name == name and (root is None or self.root_name(i) == root)
        ]

    def layer_time(self, name: str) -> float:
        """Median duration of ``name``, taken from the timed passes when they call it."""
        values = self.durations(name, root="pass") or self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another, so their durations add up
        without overlap.
        """
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def write(self, path) -> None:
        own = self.self_times()
        rows = [
            {
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "self_s": own[i],
            }
            for i, sp in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh, indent=1)
            fh.write("\n")
