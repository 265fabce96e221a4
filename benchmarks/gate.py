"""Correctness gate: answers checked against ``tests/oracle.py``, untimed.

The oracle is a naive full scan over record objects. The benchmark feeds
it the generator's clean rows, read by its own minimal parser rather than
the program's, and bucketed by period so each oracle call scans only the
period it asks about.
"""

from __future__ import annotations

import csv
import importlib.util
import math
from collections import namedtuple
from datetime import date, datetime, timezone
from pathlib import Path
from urllib.parse import unquote

UTC = timezone.utc
DELTA = 2.0  # the CLI's default strong-attitude threshold, used by the build
MIN_BURST_SUPPORT = 10

Mention = namedtuple("Mention", "entity_id")
Record = namedtuple("Record", "user_id timestamp mentions attitude "
                              "sentimentality")
Span = namedtuple("Span", "start end start_date")


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location(
        "entity_pulse_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def period_key(d: date, granularity: str) -> date:
    """Start date of the period of ``granularity`` holding day ``d``."""
    if granularity == "day":
        return d
    if granularity == "month":
        return d.replace(day=1)
    return date(d.year, 1, 1)


def window_periods(first: date, end: date, granularity: str) -> list:
    """The periods of ``granularity`` from ``first`` up to ``end``."""
    starts = sorted({period_key(date.fromordinal(n), granularity)
                     for n in range(first.toordinal(), end.toordinal())})
    bounds = starts + [end]
    return [Span(datetime(a.year, a.month, a.day, tzinfo=UTC),
                 datetime(b.year, b.month, b.day, tzinfo=UTC), a)
            for a, b in zip(bounds, bounds[1:])]


def parse_clean(lines: list[str]) -> list[Record]:
    """Records of well-formed generator rows, independent of ``corpus``."""
    out = []
    names: dict[str, Mention] = {}
    for f in csv.reader(lines):
        mentions = []
        for chunk in f[3].split(";") if f[3] else ():
            head = chunk.rpartition(":")[0]
            m = names.get(head)
            if m is None:
                m = names[head] = Mention(unquote(head))
            mentions.append(m)
        ts = datetime.fromisoformat(f[2].replace("Z", "+00:00"))
        pos, neg = int(f[4]), int(f[5])
        out.append(Record(f[1], ts.astimezone(UTC), tuple(mentions),
                          pos + neg, pos - neg - 2))
    return out


def same(a, b) -> bool:
    """Equal answers; floats may differ in the last bits of rounding."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


class Truth:
    """Oracle answers over the clean rows of one workload."""

    def __init__(self, oracle, clean: list[str], granularity: str) -> None:
        self.oracle = oracle
        self.buckets: dict[date, list[Record]] = {}
        for rec in parse_clean(clean):
            self.buckets.setdefault(
                period_key(rec.timestamp.date(), granularity), []).append(rec)

    def _bucket(self, period) -> list[Record]:
        return self.buckets.get(period.start_date, [])

    def _series(self, entity, periods, measure) -> list[tuple]:
        o = self.oracle
        out = []
        for p in periods:
            bucket = self._bucket(p)
            out.append((p.start_date, o.measure_value(
                bucket, entity, p, measure, DELTA),
                len(o.mentioning(bucket, entity, p))))
        return out

    def answer(self, op, periods):
        """The oracle's answer to ``op`` in the shape ``queries.canonical``
        gives the program's answer; ``periods`` are the window's periods."""
        o, kind = self.oracle, op[0]
        if kind == "series":
            return self._series(op[1], periods, op[2])
        if kind == "topk":
            values = [(p, v) for p, (_, v, _) in
                      zip(periods, self._series(op[1], periods, op[2]))]
            return [(p.start_date, v) for p, v in o.top_k(values, op[3],
                                                         op[4])]
        period = op[-1]
        bucket = self._bucket(period)
        if kind == "direct":
            return o.direct_connectedness(bucket, op[1], op[2], period)
        if kind == "indirect":
            return o.indirect_connectedness(bucket, op[1], op[2], period)
        if kind == "to_set":
            return o.connectedness_to_set(bucket, op[1], op[2], period)
        if kind == "k_network":
            return o.k_network(bucket, op[1], period, op[2])
        if kind == "signed":
            return o.signed_k_network(bucket, op[1], period, op[2], op[3],
                                      DELTA)
        raise ValueError(f"unknown op kind {kind!r}")


def burst_recovered(series_answer, day: str, granularity: str) -> bool:
    """The burst day's period holds the top controversiality among periods
    with at least ``MIN_BURST_SUPPORT`` texts; sparse periods of one or two
    texts reach the maximum 1.0 by chance."""
    supported = [(start, v) for start, v, support in series_answer
                 if v is not None and support >= MIN_BURST_SUPPORT]
    if not supported:
        return False
    top = min(supported, key=lambda sv: (-sv[1], sv[0]))[0]
    return top == period_key(date.fromisoformat(day), granularity)


def signed_pair_recovered(network_answer, b: str) -> bool:
    return bool(network_answer) and network_answer[0][0] == b
