"""The benchmark's workloads: seeded synth scenarios plus a bad-row injector.

Each workload is generated from ``--seed`` alone, so the same seed gives
byte-identical CSV files. The program receives only the generated file.

* ``b480k-month`` / ``b480k-day``: ROADMAP's B480k shape (1000 entities,
  24 months of 2015-2016, ``extra_mention_prob`` 0.3, 50k users) at half
  its rate, 10 texts per entity-month, i.e. 240k rows. Half rate keeps
  the row count above the 200k threshold at which ``index.build`` forks
  workers, while a run stays short enough to be repeated many times;
  ``--scale 2`` gives the full 480k rows. The scenario is generated per day, with each
  entity-month's texts spread over its days by the seed, so that the two
  planted events (a controversy burst and a negative signed pair) land on
  single days and stay recoverable at day granularity.
* ``wide-dirty-year``: 30 entities x 2500 texts per year x 2 years, 100k
  users, ``extra_mention_prob`` 0.1. Every entity id needs percent-escapes,
  and a seeded 2% of rows are corrupted copies covering all six rejection
  reasons.
"""

from __future__ import annotations

import csv
import io
import random
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date, timedelta

from entity_pulse import corpus, synth

WINDOW = ("2015-01-01", "2017-01-01")
# Rejection reasons the injector covers, keyed by metric suffix.
REASONS = {
    "field_count": corpus.REASON_FIELD_COUNT,
    "timestamp": corpus.REASON_TIMESTAMP,
    "sentiment": corpus.REASON_SENTIMENT,
    "mentions": corpus.REASON_MENTIONS,
    "empty_id": corpus.REASON_EMPTY_ID,
    "duplicate_id": corpus.REASON_DUPLICATE_ID,
}
BAD_ROW_SHARE = 0.02
BURST_TEXTS = 40
PAIR_TEXTS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    granularity: str  # index granularity passed to ``epx index``
    rounds: int       # set-up / index / cold-query rounds in an untraced run


WORKLOADS = {w.name: w for w in (
    Workload("b480k-month", "month", 2),
    Workload("b480k-day", "day", 2),
    Workload("wide-dirty-year", "year", 5),
)}


@dataclass
class Prepared:
    """One generated workload."""

    lines: list[str]            # rows as written, injected bad rows included
    clean: list[str]            # the generator's rows: exactly the accepted ones
    rejected: dict[str, int]    # injected rows per REASONS key
    roster: list[str]
    burst: tuple[str, str] | None         # (entity, day)
    signed_pair: tuple[str, str, str] | None  # (a, b, day)


def _days() -> list[date]:
    d, end = date.fromisoformat(WINDOW[0]), date.fromisoformat(WINDOW[1])
    out = []
    while d < end:
        out.append(d)
        d += timedelta(days=1)
    return out


def b480k_doc(seed: int, scale: float = 1.0) -> dict:
    """Scenario document for the B480k shape at ``10 * scale`` texts/month."""
    rng = random.Random(seed)
    rate = max(1, round(10 * scale))
    days = _days()
    months: list[tuple[int, int]] = []  # (first day index, day count)
    for i, d in enumerate(days):
        if d.day == 1:
            months.append((i, 0))
        months[-1] = (months[-1][0], months[-1][1] + 1)
    entities = []
    for i in range(1000):
        rates = [0] * len(days)
        for first, n in months:
            for _ in range(rate):
                rates[first + rng.randrange(n)] += 1
        entities.append({"id": f"ent:E{i:04d}", "rate": rates})
    burst, a, b = rng.sample(range(1000), 3)
    burst_day, pair_day = (days[rng.randrange(len(days))].isoformat()
                           for _ in range(2))
    return {
        "seed": rng.getrandbits(63),
        "window": {"from": WINDOW[0], "to": WINDOW[1]},
        "granularity": "day",
        "users": 50_000,
        "entities": entities,
        "extra_mention_prob": 0.3,
        "events": [
            {"kind": "controversy-burst", "period": burst_day,
             "entity": f"ent:E{burst:04d}", "texts": BURST_TEXTS},
            {"kind": "signed-pair", "period": pair_day, "a": f"ent:E{a:04d}",
             "b": f"ent:E{b:04d}", "texts": PAIR_TEXTS, "attitude": -3},
        ],
    }


def wide_doc(seed: int, scale: float = 1.0) -> dict:
    """Scenario document for ``wide-dirty-year``: escaped ids, wide users."""
    rate = max(1, round(2500 * scale))
    return {
        "seed": random.Random(seed).getrandbits(63),
        "window": {"from": WINDOW[0], "to": WINDOW[1]},
        "granularity": "year",
        "users": 100_000,
        "entities": [{"id": f"AT%T:{i:02d};x", "rate": rate}
                     for i in range(30)],
        "extra_mention_prob": 0.1,
    }


def _row(fields: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def corrupt(line: str, reason: str, rng: random.Random) -> str:
    """A copy of a clean row that fails validation for exactly ``reason``.

    The checks run in the order field count, ids, timestamp, mentions,
    sentiment, so each corruption leaves the fields checked earlier intact.
    """
    if reason == "duplicate_id":
        return line
    fields = next(csv.reader([line]))
    if reason == "field_count":
        fields = fields[:5] if rng.random() < 0.5 else fields + ["x", "y"]
    elif reason == "empty_id":
        fields[rng.randrange(2)] = ""
    elif reason == "timestamp":
        fields[2] = rng.choice(["2015-02-30T10:00:00Z", "yesterday", ""])
    elif reason == "mentions":
        fields[3] = rng.choice([fields[3] + ";:1.5", fields[3] + ";AT:high",
                                "AT%25T%3A07%3Bx"])
    elif reason == "sentiment":
        if rng.random() < 0.5:
            fields[4] = rng.choice(["0", "6", "+x"])
        else:
            fields[5] = rng.choice(["0", "-6", "1"])
    else:
        raise ValueError(f"unknown rejection reason {reason!r}")
    return _row(fields)


def inject_bad_rows(clean: list[str], seed: int
                    ) -> tuple[list[str], dict[str, int]]:
    """Insert a ``BAD_ROW_SHARE`` of corrupted rows, reasons in rotation, at
    seeded spots.

    Each bad row goes right after the clean row it was made from, so a
    duplicate-id row always follows its original and the accepted rows
    are exactly ``clean``.
    """
    rng = random.Random(seed * 7919 + 1)
    reasons = list(REASONS)
    counts = dict.fromkeys(reasons, 0)
    after: dict[int, list[str]] = {}
    for i in range(round(len(clean) * BAD_ROW_SHARE)):
        reason = reasons[i % len(reasons)]
        j = rng.randrange(len(clean))
        after.setdefault(j, []).append(corrupt(clean[j], reason, rng))
        counts[reason] += 1
    lines = []
    for j, line in enumerate(clean):
        lines.append(line)
        lines.extend(after.get(j, ()))
    return lines, counts


def prepare(workload: Workload, seed: int, scale: float = 1.0,
            tracer=None) -> Prepared:
    """Generate the workload's rows from ``seed``."""
    span = tracer.span if tracer else lambda name: nullcontext()
    wide = workload.name == "wide-dirty-year"
    with span("synth.scenario_from_json"):
        doc = (wide_doc if wide else b480k_doc)(seed, scale)
        spec = synth.scenario_from_json(doc)
    with span("synth.generate"):
        clean, manifest = synth.generate(spec)
    if not wide:
        ev = {e["kind"]: e for e in manifest["events"]}
        burst = ev["controversy-burst"]
        pair = ev["signed-pair"]
        return Prepared(clean, clean, dict.fromkeys(REASONS, 0),
                        manifest["entities"],
                        (burst["entity"], burst["period"][:10]),
                        (pair["a"], pair["b"], pair["period"][:10]))
    with span("setup.inject_bad_rows"):
        lines, counts = inject_bad_rows(clean, seed)
    return Prepared(lines, clean, counts, manifest["entities"], None, None)


def write_csv(lines: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")

