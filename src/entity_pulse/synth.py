"""Deterministic synthetic archive generator with planted structure.

Scenarios plant events whose expected query outcomes are recorded in a
ground-truth manifest, so tests can assert that spikes, controversy bursts
and signed co-occurrence pairs are recovered by the corresponding queries.

Determinism contract: identical (scenario, seed) pairs produce
byte-identical corpus rows and manifests. All randomness comes from one
splitmix64 stream (documented below) consumed in a fixed order: periods
chronologically; within a period the roster entities in listed order (the
texts scenario_from_json planned for each: its rate, times its spikes'
factors), then the period's other events in listed order. Draw order
per base text: user, timestamp offset, attitude, confidences, then extra
mentions. Because the generator is fully specified, any implementation of
the same constants reproduces the same corpus.

splitmix64: state advances by 0x9E3779B97F4A7C15 per draw; the output is
the advanced state passed through xor-shift/multiply finalization with
multipliers 0xBF58476D1CE4B5B9 and 0x94D049BB133111EB and shifts 30/27/31.
Uniform doubles take the top 53 bits; bounded ints reduce modulo n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from .corpus import _escape_entity, _record_line, read_json, write_lines
from .timeline import (Granularity, Period, enumerate_periods,
                       parse_period_token, parse_window)

_M64 = (1 << 64) - 1

# Most texts a scenario may plan for one (entity, period), its rate times
# the product of its popularity-spike factors, and for one event's
# ``texts``. generate() holds every row in memory, so a larger plan could
# only exhaust memory (or, past float range, fail outright);
# scenario_from_json rejects it instead.
MAX_PLANNED_TEXTS = 1_000_000
# Most texts a scenario may plan in all: every entity's rates times their
# spike factors, plus every other event's ``texts``. A generated row takes
# ~130 bytes of memory, so this is some 250 MB of rows.
MAX_SCENARIO_TEXTS = 2 * MAX_PLANNED_TEXTS

# Share of spam documents generate_labeled_docs draws.
_SPAM_FRACTION = 0.5

# Each event kind, with the keys that name its entities.
_EVENT_ENTITY_KEYS = {"popularity-spike": ("entity",),
                      "controversy-burst": ("entity",),
                      "pair-link": ("a", "b"), "signed-pair": ("a", "b"),
                      "spam-block": ()}
EVENT_KINDS = tuple(_EVENT_ENTITY_KEYS)

SPAM_VOCAB = [
    "free", "winner", "jackpot", "claim", "prize", "bonus", "casino",
    "lottery", "cheap", "pills", "offer", "credit", "loan", "urgent",
    "click", "subscribe", "deal", "discount", "cash", "money", "win",
    "guarantee", "limited", "exclusive", "rich", "earn", "income",
    "investment", "bitcoin", "crypto", "refinance", "mortgage",
]
HAM_VOCAB = [
    "meeting", "coffee", "weather", "project", "family", "dinner",
    "travel", "music", "concert", "book", "reading", "garden", "football",
    "election", "debate", "news", "article", "research", "study", "class",
    "lecture", "weekend", "holiday", "birthday", "recipe", "cooking",
    "movie", "series", "episode", "review", "photo", "camera",
]
SHARED_VOCAB = [
    "today", "please", "thanks", "great", "really", "little", "people",
    "things", "tomorrow", "maybe", "always", "never", "better", "still",
    "around", "enough",
]


class ScenarioError(ValueError):
    """Invalid scenario; the message names the offending field."""


class SplitMix64:
    """The documented generator; see the module docstring for constants."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def below(self, n: int) -> int:
        return self.next_u64() % n


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    window: tuple[datetime, datetime]
    granularity: Granularity
    users: int
    # (id, texts per period). scenario_from_json stores each rate with its
    # spikes applied, a spike needing at least one text to multiply;
    # generate() emits these counts as given and spikes none itself.
    entities: list[tuple[str, list[int]]]
    extra_mention_prob: float = 0.0
    vocab_overlap: float = 0.2
    events: list[dict] = field(default_factory=list)


def _err(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


# JSON's number types; ``type(v) in`` them excludes bool, unlike isinstance.
_INT, _NUMBER = (int,), (int, float)


def _number(v, path: str, low: float, high: float = math.inf, *,
            integer: bool = False, below_high: bool = False):
    """``v`` if it is a number in [low, high], or [low, high) when
    ``below_high``; else a ScenarioError naming ``path``. A bool is no
    number, and NaN or an infinity is never in range."""
    if (type(v) in (_INT if integer else _NUMBER) and low <= v < math.inf
            and (v < high if below_high else v <= high)):
        return v
    bound = (f">= {low}" if high == math.inf
             else f"in [{low}, {high}{')' if below_high else ']'}")
    raise _err(path, f"must be {'an integer' if integer else 'a number'} "
                     f"{bound}")


def _string(v, path: str) -> str:
    if not isinstance(v, str) or not v:
        raise _err(path, "must be a non-empty string")
    return v


def _validate_event(ev: dict, i: int, periods: list[Period],
                    g: Granularity) -> dict:
    path = f"events[{i}]"
    if not isinstance(ev, dict):
        raise _err(path, "must be an object")
    kind = ev.get("kind")
    if kind not in EVENT_KINDS:
        raise _err(f"{path}.kind", f"must be one of {list(EVENT_KINDS)}")
    token = _string(ev.get("period"), f"{path}.period")
    try:
        period = parse_period_token(token, g)
    except ValueError as exc:
        raise _err(f"{path}.period", str(exc)) from None
    if period not in periods:
        raise _err(f"{path}.period", "lies outside the scenario window")
    out = {"kind": kind, "period": period}
    for key in _EVENT_ENTITY_KEYS[kind]:
        out[key] = _string(ev.get(key), f"{path}.{key}")
    if "a" in out and out["a"] == out["b"]:
        raise _err(f"{path}.b", "pair endpoints must differ")
    if kind == "popularity-spike":
        # A factor past the bound plans too many texts at any rate.
        out["factor"] = _number(ev.get("factor"), f"{path}.factor", 1,
                                MAX_PLANNED_TEXTS)
        return out
    out["texts"] = _number(ev.get("texts"), f"{path}.texts", 1,
                           MAX_PLANNED_TEXTS, integer=True)
    if kind == "signed-pair":
        out["attitude"] = _number(ev.get("attitude"), f"{path}.attitude",
                                  -4, 4, integer=True)
    return out


def _add_to_plan(total: float, texts: float, path: str) -> float:
    """``total + texts``; a ScenarioError naming ``path`` if that passes
    MAX_SCENARIO_TEXTS."""
    total += texts
    if total > MAX_SCENARIO_TEXTS:
        raise _err(path, f"plans {total:.3g} texts in all; at most "
                         f"{MAX_SCENARIO_TEXTS} are allowed per scenario")
    return total


def scenario_from_json(doc: dict) -> ScenarioSpec:
    """Validate a scenario document.

    Each error is a ScenarioError ``PATH: must be ...`` naming the field at
    fault (``seed``, ``window.from``, ``events[0].factor``); a rule that
    ties two fields names one. The window tokens and periods are checked as
    one (``window: ...``), and a non-object fails as ``scenario: ...``.
    A popularity spike multiplies the texts its (entity, period) has, so
    it must plan at least one text there. Each entity's texts per period
    are stored with its spikes applied. The texts planned in all are summed
    over the entities' rates, then the spikes' factors, then the other
    events' texts; the field at which the sum passes MAX_SCENARIO_TEXTS is
    named.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: must be a JSON object")
    seed = _number(doc.get("seed"), "seed", 0, integer=True)
    window_doc = doc.get("window")
    if not isinstance(window_doc, dict):
        raise _err("window", "must be an object with from/to")
    try:
        g = Granularity.parse(doc.get("granularity", "month"))
    except ValueError as exc:
        raise _err("granularity", str(exc)) from None
    tokens = [_string(window_doc.get(k), f"window.{k}")
              for k in ("from", "to")]
    try:
        start, end = parse_window(*tokens, g)
        periods = enumerate_periods(start, end, g)
    except ValueError as exc:
        raise _err("window", str(exc)) from None
    users = _number(doc.get("users"), "users", 1, integer=True)
    raw_entities = doc.get("entities")
    if not isinstance(raw_entities, list):
        raise _err("entities", "must be a list")
    entities: dict[str, list[int]] = {}
    total = 0  # texts planned so far
    for i, ent in enumerate(raw_entities):
        path = f"entities[{i}]"
        if not isinstance(ent, dict):
            raise _err(path, "must be an object")
        eid = _string(ent.get("id"), f"{path}.id")
        if eid in entities:
            raise _err(f"{path}.id", f"duplicate entity {eid!r}")
        rate = ent.get("rate")
        rates = rate if isinstance(rate, list) else [rate] * len(periods)
        if len(rates) != len(periods):
            raise _err(f"{path}.rate",
                       f"must be an integer in [0, {MAX_PLANNED_TEXTS}] or "
                       f"a list of {len(periods)} such integers")
        entities[eid] = [_number(r, f"{path}.rate", 0, MAX_PLANNED_TEXTS,
                                 integer=True) for r in rates]
        total = _add_to_plan(total, sum(entities[eid]), f"{path}.rate")
    prob = _number(doc.get("extra_mention_prob", 0.0), "extra_mention_prob",
                   0, 1, below_high=True)
    overlap = _number(doc.get("vocab_overlap", 0.2), "vocab_overlap", 0, 0.4)
    raw_events = doc.get("events", [])
    if not isinstance(raw_events, list):
        raise _err("events", "must be a list")
    events = [_validate_event(ev, i, periods, g)
              for i, ev in enumerate(raw_events)]
    # Each spiked (entity, period index): its factors' product so far.
    products: dict[tuple[str, int], float] = {}
    for i, ev in enumerate(events):
        if ev["kind"] != "popularity-spike":
            continue
        eid, pi = key = ev["entity"], periods.index(ev["period"])
        product = products[key] = products.get(key, 1.0) * ev["factor"]
        planned = (entities[eid][pi] if eid in entities else 0) * product
        if not 1 <= planned <= MAX_PLANNED_TEXTS:
            raise _err(f"events[{i}].factor",
                       f"plans {planned:.3g} texts for {eid!r} in "
                       f"{ev['period'].render()}; a spike multiplies the "
                       f"texts its entity has there, so it must plan from 1 "
                       f"to {MAX_PLANNED_TEXTS}")
        # The spike multiplies the texts its (entity, period) had planned.
        total = _add_to_plan(total, planned * (1 - 1 / ev["factor"]),
                             f"events[{i}].factor")
    for (eid, pi), product in products.items():
        entities[eid][pi] = int(round(entities[eid][pi] * product))
    for i, ev in enumerate(events):
        total = _add_to_plan(total, ev.get("texts", 0), f"events[{i}].texts")
    return ScenarioSpec(seed, (start, end), g, users, list(entities.items()),
                        float(prob), float(overlap), events)


def load_scenario(path) -> ScenarioSpec:
    try:
        doc = read_json(path, "scenario")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario_from_json(doc)


# Cumulative thresholds for the base per-text attitude draw; heavily
# neutral with thin strong tails.
_ATTITUDE_TABLE = [
    (0.50, 0), (0.65, 1), (0.80, -1), (0.88, 2), (0.94, -2),
    (0.965, 3), (0.985, -3), (0.993, 4), (1.01, -4),
]


def _draw_attitude(rng: SplitMix64) -> int:
    u = rng.uniform()
    for threshold, phi in _ATTITUDE_TABLE:
        if u < threshold:
            return phi
    return -4


def _scores_for(phi: int) -> tuple[int, int]:
    return (1 + phi, -1) if phi >= 0 else (1, -1 + phi)


def class_pools(overlap: float) -> tuple[list[str], list[str]]:
    """Spam/ham token pools sharing ``overlap`` of their vocabulary."""
    n_shared = round(len(SPAM_VOCAB) * overlap)
    shared = SHARED_VOCAB[:n_shared]
    keep = len(SPAM_VOCAB) - n_shared
    return SPAM_VOCAB[:keep] + shared, HAM_VOCAB[:keep] + shared


def _phrase(rng: SplitMix64, pool: list[str]) -> str:
    return " ".join(pool[rng.below(len(pool))]
                    for _ in range(8 + rng.below(8)))


def generate(spec: ScenarioSpec) -> tuple[list[str], dict]:
    """Produce corpus CSV rows and the ground-truth manifest."""
    periods = enumerate_periods(spec.window[0], spec.window[1],
                                spec.granularity)
    roster = [eid for eid, _ in spec.entities]
    with_text = any(ev["kind"] == "spam-block" for ev in spec.events)
    rng = SplitMix64(spec.seed)
    spam_pool, ham_pool = class_pools(spec.vocab_overlap)
    rows: list[str] = []

    def emit(period: Period, mentions: list[str], phi: int | None,
             spam: bool = False) -> None:
        user = f"u{rng.below(spec.users):05d}"
        span = int((period.end - period.start).total_seconds())
        ts = period.start + timedelta(seconds=rng.below(span))
        if phi is None:
            phi = _draw_attitude(rng)
        pos, neg = _scores_for(phi)
        parts = [(_escape_entity(m), round(-5.0 + 8.0 * rng.uniform(), 3))
                 for m in mentions]
        text = (_phrase(rng, spam_pool if spam else ham_pool) if with_text
                else None)
        rows.append(_record_line(f"t{len(rows) + 1:08d}", user, ts, parts,
                                 pos, neg, text))

    # The events that plant texts of their own; spikes are in the entities'.
    by_period: dict[Period, list[dict]] = {}
    for ev in spec.events:
        if "texts" in ev:
            by_period.setdefault(ev["period"], []).append(ev)

    for pi, period in enumerate(periods):
        for eid, texts in spec.entities:
            for _ in range(texts[pi]):
                mentions = [eid]
                while (len(mentions) < 4 and roster
                       and rng.uniform() < spec.extra_mention_prob):
                    cand = roster[rng.below(len(roster))]
                    if cand not in mentions:
                        mentions.append(cand)
                emit(period, mentions, None)
        for ev in by_period.get(period, ()):
            kind = ev["kind"]
            mentions = [ev[key] for key in _EVENT_ENTITY_KEYS[kind]]
            for j in range(ev["texts"]):
                phi = ((3 if j % 2 == 0 else -3) if kind == "controversy-burst"
                       else ev.get("attitude", 0))
                emit(period, mentions, phi, kind == "spam-block")

    manifest = {
        "seed": spec.seed,
        "rows": len(rows),
        "spam_rows": sum(ev["texts"] for ev in spec.events
                         if ev["kind"] == "spam-block"),
        "window": {"from": spec.window[0].date().isoformat(),
                   "to": spec.window[1].date().isoformat()},
        "granularity": spec.granularity.value,
        "periods": [p.render() for p in periods],
        "entities": roster,
        "users": spec.users,
        "with_text": with_text,
        "events": [{k: v for k, v in ev.items() if k != "period"}
                   | {"period": ev["period"].render()} for ev in spec.events],
    }
    return rows, manifest


def write_corpus(spec: ScenarioSpec, corpus_path, manifest_path=None) -> dict:
    """Write rows (and optionally the manifest) to disk; returns the manifest."""
    rows, manifest = generate(spec)
    write_lines(corpus_path, rows)
    if manifest_path is not None:
        write_lines(manifest_path, [json.dumps(manifest, indent=2)])
    return manifest


def generate_labeled_docs(n_docs: int, overlap: float, seed: int
                          ) -> list[tuple[str, str]]:
    """Deterministic ``(text, label)`` training corpus for the spam filter.

    Class vocabularies share ``overlap`` of their tokens; the remainder is
    class-exclusive, so the corpus is separable by construction.
    """
    spam_pool, ham_pool = class_pools(overlap)
    rng = SplitMix64(seed)
    out = []
    for _ in range(n_docs):
        if rng.uniform() < _SPAM_FRACTION:
            out.append((_phrase(rng, spam_pool), "spam"))
        else:
            out.append((_phrase(rng, ham_pool), "ham"))
    return out
