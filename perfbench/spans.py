"""Spans kept in memory: name, start, end, parent and run id.

A span is recorded around each call the benchmark makes into a module of the
package.  Self time is a span's duration minus the part of it that its child
spans cover.  ``NullTracer`` is what untraced runs use.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import passglm as pg


class Tracer:
    def __init__(self, run_id: str, prefix: str):
        self.run_id = run_id
        self.prefix = prefix  # keeps span ids unique when processes' spans are merged
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": f"{self.prefix}{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


class NullTracer:
    def span(self, name: str):
        return nullcontext()


class TracedStream(pg.RecordStream):
    """Records one span around each batch pulled from ``base``."""

    def __init__(self, base: pg.RecordStream, tracer: Tracer, name: str):
        self.base = base
        self.tracer = tracer
        self.name = name
        self.d = base.d
        self.passes = 0

    def _iter_batches(self, batch_size: int):
        it = self.base.batches(batch_size)
        while True:
            with self.tracer.span(self.name) as record:
                batch = next(it, None)
                record["records"] = 0 if batch is None else len(batch[0])
            if batch is None:
                return
            yield batch


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
