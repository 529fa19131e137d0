"""Spans around the benchmark's calls into breakcalc.

Workload code calls the library only through a `Calls` object.  Untraced, its
attributes are the library functions themselves; traced, each is wrapped so
that every call records a span (name, start, end, parent span, item id).
Spans stay in memory until the run ends.  A layer's self time is the total
duration of its spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.item = -1

    def span(self, name: str, fn):
        """fn wrapped so that each call records a span called name."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self.item)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start - child_s[i]) * 1000.0
        return dict(out)

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "item": s.item} for s in self.spans]


class Calls:
    """The library entry points a workload uses, traced or not.

    `table` maps an attribute name to (span name, function); the span name is
    the layer metric's name without its unit.
    """

    def __init__(self, table: dict[str, tuple[str, object]],
                 tracer: Tracer | None = None):
        for attr, (name, fn) in table.items():
            setattr(self, attr, fn if tracer is None else tracer.span(name, fn))
