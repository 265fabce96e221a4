"""Seeded query plans: the warm in-process stream and the cold CLI commands.

An op is a tuple whose first item is its kind. Scan ops walk every period
of the workload window; point ops ask about a single period. About one op
in ten names an unknown entity or an empty period (the one holding
2014-12-15, before the window), since "unknown" and "empty" are valid
answers too.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timezone

from entity_pulse import corpus, measures, relations
from entity_pulse.timeline import Granularity, enumerate_periods, period_of

from workloads import WINDOW

UTC = timezone.utc
WINDOW_DT = tuple(datetime.fromisoformat(t).replace(tzinfo=UTC)
                  for t in WINDOW)
EMPTY_DAY = datetime(2014, 12, 15, tzinfo=UTC)
UNKNOWN = "ent:NOT-IN-ARCHIVE"
MEASURE_NAMES = sorted(measures.MEASURES)
SCAN_KINDS = ("series", "topk")
POINT_KINDS = ("direct", "indirect", "to_set", "k_network", "signed")
# Span name of the layer function each op kind calls.
LAYER = {
    "series": "measures.series",
    "topk": "measures.top_k_periods",
    "direct": "relations.direct_connectedness",
    "indirect": "relations.indirect_connectedness",
    "to_set": "relations.connectedness_to_set",
    "k_network": "relations.k_network",
    "signed": "relations.signed_k_network",
}
K = 10
TOP_K = 5
N_SCAN, N_POINT = 40, 200  # ops per pass of the warm stream


def execute(index, op):
    """Run one op against a loaded index; returns the program's answer."""
    kind = op[0]
    if kind == "series":
        return measures.series(index, op[1], WINDOW_DT, op[2])
    if kind == "topk":
        return measures.top_k_periods(index, op[1], WINDOW_DT, op[2], op[3],
                                      op[4])
    if kind == "direct":
        return relations.direct_connectedness(index, op[1], op[2], op[3])
    if kind == "indirect":
        return relations.indirect_connectedness(index, op[1], op[2], op[3])
    if kind == "to_set":
        return relations.connectedness_to_set(index, op[1], op[2], op[3])
    if kind == "k_network":
        return relations.k_network(index, op[1], op[3], op[2])
    if kind == "signed":
        return relations.signed_k_network(index, op[1], op[4], op[2], op[3],
                                          2.0)
    raise ValueError(f"unknown op kind {kind!r}")


def canonical(op, answer):
    """Plain-data form of an answer, comparable with ``gate.Truth.answer``."""
    kind = op[0]
    if kind == "series":
        return [(p.period.start_date, p.value, p.support) for p in answer]
    if kind == "topk":
        return [(p.start_date, v) for p, v in answer.items]
    if kind in ("k_network", "signed"):
        return list(answer.entries)
    return answer


def warm_plan(truth, roster: list[str], granularity: str, seed: int
              ) -> list[tuple]:
    """Fixed seeded op sequence, scan and point ops mixed."""
    rng = random.Random(seed * 31 + 5)
    g = Granularity.parse(granularity)
    keys = sorted(truth.buckets)
    scans = []
    for i in range(N_SCAN):
        entity = UNKNOWN if rng.random() < 0.1 else rng.choice(roster)
        measure = MEASURE_NAMES[i % len(MEASURE_NAMES)]
        if i % 2 == 0:
            scans.append(("series", entity, measure))
        else:
            scans.append(("topk", entity, measure, TOP_K,
                          "high" if i % 4 == 1 else "low"))
    points = []
    for i in range(N_POINT):
        key = rng.choice(keys)
        rec = rng.choice(truth.buckets[key])
        entity = rec.mentions[0].entity_id
        others = [m.entity_id for m in rec.mentions[1:]]
        other = others[0] if others else rng.choice(roster)
        while other == entity:
            other = rng.choice(roster)
        period = period_of(rec.timestamp, g)
        u = rng.random()
        if u < 0.05:
            entity = UNKNOWN
        elif u < 0.1:
            period = period_of(EMPTY_DAY, g)
        kind = POINT_KINDS[i % len(POINT_KINDS)]
        if kind in ("direct", "indirect"):
            points.append((kind, entity, other, period))
        elif kind == "to_set":
            targets = [other]
            while len(targets) < 3:
                cand = rng.choice(roster)
                if cand != entity and cand not in targets:
                    targets.append(cand)
            points.append((kind, entity, tuple(targets), period))
        elif kind == "k_network":
            points.append((kind, entity, K, period))
        else:
            points.append((kind, entity, K,
                           "negative" if i % 2 else "positive", period))
    # Shuffled, so that no op kind always follows a scan op and pays for
    # the garbage and cold caches it leaves behind.
    ops = scans + points
    rng.shuffle(ops)
    return ops


class ColdCommand:
    """One ``epx`` query subprocess and the answer it must print."""

    def __init__(self, name: str, argv: list[str], op, render) -> None:
        self.name = name      # the subcommand
        self.argv = argv      # arguments after the program name
        self.op = op          # the in-process op whose answer it prints
        self.render = render  # index -> expected stdout


def _lines(rows: list[str]) -> str:
    return "".join(row + "\n" for row in rows)


def cold_commands(prepared, granularity: str, index_path: str, seed: int
                  ) -> list[ColdCommand]:
    """Every query subcommand once; CSV and JSON output both appear."""
    rng = random.Random(seed * 17 + 3)
    g = Granularity.parse(granularity)
    window = ["--from", WINDOW[0], "--to", WINDOW[1],
              "--granularity", granularity]
    base = ["--index", index_path]
    series_entity = rng.choice(prepared.roster)
    if prepared.burst is not None:
        top_entity = prepared.burst[0]
        a, b, day = prepared.signed_pair
        net_period = period_of(datetime.fromisoformat(day).replace(
            tzinfo=UTC), g)
    else:
        top_entity = rng.choice(prepared.roster)
        a, b = rng.sample(prepared.roster, 2)
        net_period = period_of(WINDOW_DT[0], g)
    token = net_period.start_date.isoformat()

    series_op = ("series", series_entity, "attitude")
    topk_op = ("topk", top_entity, "controversiality", TOP_K, "high")
    signed_op = ("signed", a, K, "negative", net_period)

    def render_series(index):
        return _lines(measures.series_csv_rows(
            execute(index, series_op), "attitude"))

    def render_topk(index):
        return _lines(json.dumps(r) for r in
                      measures.ranked_periods_json_records(
                          execute(index, topk_op), index))

    def render_connectedness(index):
        rows = []
        for period in enumerate_periods(WINDOW_DT[0], WINDOW_DT[1], g):
            for kind in ("direct", "indirect"):
                value = execute(index, (kind, a, b, period))
                rows.append(corpus.csv_line(
                    [a, b, period.start_date.isoformat(),
                     period.end_date.isoformat(), kind,
                     "" if value is None else repr(value)]))
        return _lines(rows)

    def render_network(index):
        return _lines(json.dumps(r) for r in relations.network_json_records(
            execute(index, signed_op)))

    return [
        ColdCommand("series", ["series", *base, "--entity", series_entity,
                               "--measure", "attitude", *window],
                    series_op, render_series),
        ColdCommand("topk", ["topk", *base, "--entity", top_entity,
                             "--measure", "controversiality", "--k",
                             str(TOP_K), "--format", "json", *window],
                    topk_op, render_topk),
        ColdCommand("connectedness", ["connectedness", *base, "--entity", a,
                                      "--other", b, "--kind", "both",
                                      *window],
                    ("direct", a, b, net_period), render_connectedness),
        ColdCommand("network", ["network", *base, "--entity", a, "--period",
                                token, "--variant", "negative", "--format",
                                "json"],
                    signed_op, render_network),
    ]
