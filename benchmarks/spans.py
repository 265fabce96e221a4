"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start and an end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes of one boot),
and the id of the span that caused it. Spans are kept in memory and written
once, when the run ends. Self time is a span's duration minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter_ns(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter_ns()

    def adopt(self, spans: list[dict]) -> None:
        """Graft spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            self.spans.append({
                "id": base + s["id"], "name": s["name"],
                "parent": parent if s["parent"] is None
                else base + s["parent"],
                "start": s["start"], "end": s["end"]})

    def durations_us(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) / 1e3 for s in self.spans
                if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations_us(name)) / 1e6

    def with_self_time(self) -> list[dict]:
        """Spans with ``self_ns``: duration minus the union of child spans."""
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered = 0
            cursor = s["start"]
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, cursor), min(b, s["end"])
                if b > a:
                    covered += b - a
                    cursor = b
            out.append(dict(s, self_ns=s["end"] - s["start"] - covered))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.with_self_time():
                fh.write(json.dumps(s) + "\n")
