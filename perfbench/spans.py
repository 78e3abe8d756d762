"""In-memory spans recorded around calls into the program's modules.

A ``Tracer`` wraps callables so that each call records a span (name, start,
end, parent span, items of work).  ``patched`` installs such wrappers on
module or class attributes for the length of a ``with`` block and restores
the originals afterwards, so the program's source stays untouched.  Spans
are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    items: int


@dataclass
class LayerTotal:
    calls: int = 0
    items: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, items: Callable[..., int] | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, items(*args, **kwargs) if items else 1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def totals(spans: list[Span]) -> dict[str, LayerTotal]:
    """Calls, items, inclusive time and self time summed per span name."""
    out: dict[str, LayerTotal] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, LayerTotal())
        t.calls += 1
        t.items += span.items
        t.total_s += span.end - span.start
        t.self_s += own
    return out


@dataclass(frozen=True)
class Target:
    """An attribute to wrap: ``owner.attr`` recorded as span ``name``."""

    owner: object
    attr: str
    name: str
    items: Callable[..., int] | None = None


@contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[list[str]]:
    """Wrap every target that exists; yields the names of targets not found.

    On a class the raw descriptor is saved and restored, so classmethods and
    plain methods both keep working while wrapped.
    """
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for t in targets:
            if isinstance(t.owner, type):
                raw = t.owner.__dict__.get(t.attr)
                if raw is None:
                    missing.append(t.name)
                    continue
                if isinstance(raw, classmethod):
                    new = staticmethod(tracer.wrap(t.name, getattr(t.owner, t.attr), t.items))
                else:
                    new = tracer.wrap(t.name, raw, t.items)
            else:
                raw = getattr(t.owner, t.attr, None)
                if raw is None:
                    missing.append(t.name)
                    continue
                new = tracer.wrap(t.name, raw, t.items)
            saved.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, new)
        yield missing
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
