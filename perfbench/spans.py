"""In-memory span tracer that wraps package entry points from the outside.

The package modules call each other through module attributes
(`walk.run_batch`, `schedules.schedule_arrays`, ...), so replacing an
attribute with a timing wrapper traces every call without editing the
package. Spans stay in memory; `dump` writes them once, at exit.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    units: int = 0  # seed-steps, rows, iterations: whatever the span processed
    tag: str = ""   # the config a span ran for, set on the benchmark's own spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans. One
    thread records the spans on a stack, so children never overlap."""
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_s.get(s.id, 0.0) for s in spans}


def outermost_time(spans, names) -> float:
    """Total duration of the spans called one of `names`, a span nested in
    another such span counted through the outer one only."""
    inside: dict[int, bool] = {}
    total = 0.0
    for s in spans:  # parents come before their children
        outer = s.parent is not None and inside[s.parent]
        inside[s.id] = outer or s.name in names
        if inside[s.id] and not outer:
            total += s.duration
    return total


class Tracer:
    """Records nested spans and counters while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.wrapped: set[str] = set()  # names of spans around package calls
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, tag: str = "") -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock(), 0.0, tag=tag)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, owner, attr: str, name: str, after=None):
        """Time every call of owner.attr as a span called `name`.

        `after(span, args, kwargs, result)` may record the work the call did
        in span.units and bump counters from the returned value.
        """
        fn = getattr(owner, attr)
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patch(owner, attr, fn, traced)

    def count(self, owner, attr: str, name: str):
        """Count calls of owner.attr without a span (for hot inner calls)."""
        fn = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, counted)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


class NoTrace:
    """Stand-in for Tracer on untraced passes: calls straight through."""

    def begin(self, name: str, tag: str = "") -> None:
        return None

    def end(self, span) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
