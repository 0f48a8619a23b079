"""In-memory spans, recorded from outside the program.

Spans are recorded only in a traced run, around calls into the program's
public functions.  Methods are wrapped on *instances*: the encoder picks its
flat-batch route by checking whether its *class* overrides the per-graph
hooks, so a class-level patch would send every batch down the per-graph
route and change what is measured.

Spans are kept in memory and written out once, as Chrome trace-event JSON,
which Perfetto and chrome://tracing open.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """Nestable spans and counters for one single-threaded run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span | None] = []
        self.counters: list[tuple[str, int, float]] = []
        self._stack: list[int] = []
        self._children: dict | None = None  # built on first analysis

    @contextlib.contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, None, args)

    def add(self, name: str, start_ns: int, end_ns: int, request: int, **args) -> None:
        """A span recorded after the fact (overlapping served requests)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, start_ns, end_ns, parent, request, args))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters.append((name, time.perf_counter_ns(), value))

    # ------------------------------------------------------------- wrapping
    def wrap(self, obj, method: str, name: str, size=None) -> None:
        """Record a span around every call of ``obj.method`` (instance only).

        ``size(args, kwargs)`` gives the item count stored with the span.
        """
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            items = size(args, kwargs) if size else None
            with self.span(name, items=items):
                return original(*args, **kwargs)

        setattr(obj, method, traced)

    def count_calls(self, obj, method: str, name: str, size) -> None:
        """Add ``size(args, kwargs)`` to counter ``name`` on every call."""
        original = getattr(obj, method)

        def counted(*args, **kwargs):
            self.count(name, size(args, kwargs))
            return original(*args, **kwargs)

        setattr(obj, method, counted)

    # ------------------------------------------------------------- analysis
    def finished(self) -> list[Span]:
        return [span for span in self.spans if span is not None]

    def self_seconds(self, index: int) -> float:
        """Duration of span ``index`` minus the time its children cover."""
        if self._children is None:
            self._children = {}
            for child in self.finished():
                if child.request is None:
                    self._children.setdefault(child.parent, []).append(child)
        span = self.spans[index]
        intervals = sorted(
            (child.start_ns, child.end_ns) for child in self._children.get(index, ())
        )
        covered, cursor = 0, span.start_ns
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return (span.end_ns - span.start_ns - covered) / 1e9

    def within(self, name: str, *groups: tuple[str, ...]) -> list[int]:
        """Indices of spans ``name`` that have an ancestor in every group."""
        found = []
        for index, span in enumerate(self.spans):
            if span is None or span.name != name:
                continue
            ancestors = set()
            parent = span.parent
            while parent is not None:
                ancestors.add(self.spans[parent].name)
                parent = self.spans[parent].parent
            if all(ancestors.intersection(group) for group in groups):
                found.append(index)
        return found

    def counter_total(self, name: str, since_ns: int = 0, until_ns: int | None = None) -> float:
        return sum(
            value
            for counter, at, value in self.counters
            if counter == name and at >= since_ns and (until_ns is None or at <= until_ns)
        )

    # --------------------------------------------------------------- export
    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Chrome trace-event JSON: sync spans as X events, requests as async."""
        spans = self.finished()
        origin = min((span.start_ns for span in spans), default=0)
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            args = {k: v for k, v in span.args.items() if v is not None}
            args["parent"] = span.parent
            common = {"name": span.name, "pid": 1, "args": args}
            ts = (span.start_ns - origin) / 1000.0
            if span.request is None:
                events.append({**common, "ph": "X", "tid": 1, "ts": ts,
                               "dur": (span.end_ns - span.start_ns) / 1000.0, "id": index})
            else:
                args["request"] = span.request
                ident = {"cat": "request", "id": span.request, "tid": 2}
                events.append({**common, **ident, "ph": "b", "ts": ts})
                events.append({**common, **ident, "ph": "e",
                               "ts": (span.end_ns - origin) / 1000.0})
        for name, at, value in self.counters:
            events.append({"name": name, "ph": "C", "pid": 1, "tid": 1,
                           "ts": (at - origin) / 1000.0, "args": {"value": value}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "metadata": metadata}, handle)

