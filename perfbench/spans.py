"""In-memory spans around the benchmark's own calls into troprank.

A span records (id, parent, job, layer, name, start, end).  Spans stay in a
list until the round ends; nothing is written while jobs run.  A span's self
time is its duration minus the durations of its direct children (calls are
single-threaded and properly nested, so children never overlap).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    job: int
    layer: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, layer: str, name: str, job: int) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, parent, job, layer, name, time.perf_counter()))
        self._open.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid].end = time.perf_counter()
        if self._open.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def self_times(self) -> list[float]:
        """Self time per span, indexed like ``spans``."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out


class Calls:
    """Routes each call into a troprank layer; records a span when traced.

    Untraced, ``call`` adds one Python call frame and nothing else, so the
    untraced rounds time the program itself.
    """

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.job = -1

    def call(self, layer: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        sid = self.tracer.begin(layer, fn.__name__, self.job)
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.end(sid)
