"""In-memory spans and the arithmetic on them.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(-1 at the root).  Spans are kept in a list while the traced pass runs and
written out once at the end.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["Tracer", "union_length", "self_times", "nearest_rank"]


class Tracer:
    """Records nested spans and named counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    reach = -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [
        (end - start) - union_length(kids)
        for (_, start, end, _), kids in zip(spans, children)
    ]


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
