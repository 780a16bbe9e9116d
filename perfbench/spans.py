"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into each layer's
public functions (no code under ``src/`` is instrumented). Each span keeps
its name, start, end, parent span and the query it belongs to, plus any
counts measured at that boundary. :meth:`Tracer.dump` writes them out once,
at the end of the run.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one
    attribute check per span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._query: int | None = None
        self._queries = 0

    @contextmanager
    def query(self):
        """Groups the spans opened inside under the next query id."""
        self._query, self._queries = self._queries, self._queries + 1
        try:
            with self.span("query") as s:
                yield s
        finally:
            self._query = None

    @contextmanager
    def span(self, name: str, **counts: float):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self._query, time.perf_counter(),
                 counts=dict(counts))
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Adds a finished top-level span, such as one timed on another
        thread (the span stack belongs to the calling thread)."""
        if self.enabled:
            self.spans.append(Span(len(self.spans), name, None, None, start, end))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def median_s(self, name: str) -> float:
        return statistics.median(s.seconds for s in self.named(name))

    def median_count(self, name: str, key: str) -> float:
        return statistics.median(s.counts[key] for s in self.named(name))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)
