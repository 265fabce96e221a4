"""Deterministic synthetic archive generator with planted structure.

Scenarios plant events whose expected query outcomes are recorded in a
ground-truth manifest, so tests can assert that spikes, controversy bursts
and signed co-occurrence pairs are recovered by the corresponding queries.

Determinism contract: identical (scenario, seed) pairs produce
byte-identical corpus rows and manifests. All randomness comes from one
splitmix64 stream (documented below) consumed in a fixed order: periods
chronologically; within a period the roster entities in listed order (one
text per rate unit), then the period's events in listed order. Draw order
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
from pathlib import Path

from .corpus import _escape_entity, csv_line, write_atomic
from .timeline import (Granularity, Period, enumerate_periods,
                       parse_period_token)

_M64 = (1 << 64) - 1

# Most texts a scenario may plan for one (entity, period): its rate times
# the product of its popularity-spike factors. generate() holds every row
# in memory, so a larger plan could only exhaust memory (or, past float
# range, fail outright); scenario_from_json rejects it instead.
MAX_PLANNED_TEXTS = 1_000_000

EVENT_KINDS = ("popularity-spike", "controversy-burst", "pair-link",
               "signed-pair", "spam-block")

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
    entities: list[tuple[str, list[int]]]  # (id, per-period rates)
    extra_mention_prob: float = 0.0
    vocab_overlap: float = 0.2
    events: list[dict] = field(default_factory=list)


def _err(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _require_int(doc: dict, path: str, key: str, minimum: int) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise _err(f"{path}.{key}", f"must be an integer >= {minimum}")
    return v


def _require_str(doc: dict, path: str, key: str) -> str:
    v = doc.get(key)
    if not isinstance(v, str) or not v:
        raise _err(f"{path}.{key}", "must be a non-empty string")
    return v


def _validate_event(ev: dict, i: int, periods: list[Period],
                    g: Granularity) -> dict:
    path = f"events[{i}]"
    if not isinstance(ev, dict):
        raise _err(path, "must be an object")
    kind = ev.get("kind")
    if kind not in EVENT_KINDS:
        raise _err(f"{path}.kind", f"must be one of {list(EVENT_KINDS)}")
    token = _require_str(ev, path, "period")
    try:
        period = parse_period_token(token, g)
    except ValueError as exc:
        raise _err(f"{path}.period", str(exc)) from None
    if period not in periods:
        raise _err(f"{path}.period", "lies outside the scenario window")
    out = {"kind": kind, "period": period}
    if kind == "popularity-spike":
        out["entity"] = _require_str(ev, path, "entity")
        factor = ev.get("factor")
        # NaN fails the chained comparison; True would pass as 1, and an
        # infinite factor overflows in generate() without naming the field.
        if (not isinstance(factor, (int, float)) or isinstance(factor, bool)
                or not 1 <= factor < math.inf):
            raise _err(f"{path}.factor", "must be a number >= 1")
        out["factor"] = factor
    elif kind == "controversy-burst":
        out["entity"] = _require_str(ev, path, "entity")
        out["texts"] = _require_int(ev, path, "texts", 1)
    elif kind in ("pair-link", "signed-pair"):
        out["a"] = _require_str(ev, path, "a")
        out["b"] = _require_str(ev, path, "b")
        if out["a"] == out["b"]:
            raise _err(f"{path}.b", "pair endpoints must differ")
        out["texts"] = _require_int(ev, path, "texts", 1)
        if kind == "signed-pair":
            att = ev.get("attitude")
            if not isinstance(att, int) or isinstance(att, bool) \
                    or not -4 <= att <= 4:
                raise _err(f"{path}.attitude",
                           "must be an integer in [-4, 4]")
            out["attitude"] = att
    else:  # spam-block
        out["texts"] = _require_int(ev, path, "texts", 1)
    return out


def _is_count(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            and 0 <= v <= MAX_PLANNED_TEXTS)


def _check_planned_texts(events: list[dict], rates: dict[str, list[int]],
                         periods: list[Period]) -> None:
    """Name the first spike that lifts an (entity, period) plan, its rate
    (taken as at least 1) times the product of its factors, past
    ``MAX_PLANNED_TEXTS``."""
    factors: dict[tuple[str, Period], float] = {}
    for i, ev in enumerate(events):
        if ev["kind"] != "popularity-spike":
            continue
        key = (ev["entity"], ev["period"])
        factor = factors[key] = factors.get(key, 1.0) * ev["factor"]
        entity_rates = rates.get(ev["entity"])
        rate = entity_rates[periods.index(ev["period"])] if entity_rates else 0
        if max(rate, 1) * factor > MAX_PLANNED_TEXTS:
            raise _err(f"events[{i}].factor",
                       f"plans {max(rate, 1) * factor:.3g} texts for "
                       f"{ev['entity']!r} in {ev['period'].render()}; at "
                       f"most {MAX_PLANNED_TEXTS} are allowed per (entity, "
                       f"period)")


def scenario_from_json(doc: dict) -> ScenarioSpec:
    """Validate a scenario document; errors name the offending field."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: must be a JSON object")
    seed = _require_int(doc, "scenario", "seed", 0)
    window_doc = doc.get("window")
    if not isinstance(window_doc, dict):
        raise ScenarioError("window: must be an object with from/to")
    try:
        g = Granularity.parse(doc.get("granularity", "month"))
    except ValueError as exc:
        raise ScenarioError(f"granularity: {exc}") from None
    try:
        start = parse_period_token(_require_str(window_doc, "window", "from"),
                                   Granularity.DAY).start
        end = parse_period_token(_require_str(window_doc, "window", "to"),
                                 Granularity.DAY).start
    except ValueError as exc:
        raise ScenarioError(f"window: {exc}") from None
    if start >= end:
        raise ScenarioError("window: 'from' must precede 'to'")
    users = _require_int(doc, "scenario", "users", 1)
    periods = enumerate_periods(start, end, g)
    raw_entities = doc.get("entities")
    if not isinstance(raw_entities, list):
        raise ScenarioError("entities: must be a list")
    entities: list[tuple[str, list[int]]] = []
    seen: set[str] = set()
    for i, ent in enumerate(raw_entities):
        path = f"entities[{i}]"
        if not isinstance(ent, dict):
            raise _err(path, "must be an object")
        eid = _require_str(ent, path, "id")
        if eid in seen:
            raise _err(f"{path}.id", f"duplicate entity {eid!r}")
        seen.add(eid)
        rate = ent.get("rate")
        if _is_count(rate):
            rates = [rate] * len(periods)
        elif (isinstance(rate, list) and len(rate) == len(periods)
              and all(_is_count(r) for r in rate)):
            rates = list(rate)
        else:
            raise _err(f"{path}.rate",
                       f"must be an integer in [0, {MAX_PLANNED_TEXTS}] or "
                       f"a list of {len(periods)} such integers")
        entities.append((eid, rates))
    prob = doc.get("extra_mention_prob", 0.0)
    if (not isinstance(prob, (int, float)) or isinstance(prob, bool)
            or not 0.0 <= prob < 1.0):
        raise ScenarioError("extra_mention_prob: must be a number in [0, 1)")
    overlap = doc.get("vocab_overlap", 0.2)
    if (not isinstance(overlap, (int, float)) or isinstance(overlap, bool)
            or not 0.0 <= overlap <= 0.4):
        raise ScenarioError("vocab_overlap: must be a number in [0, 0.4]")
    raw_events = doc.get("events", [])
    if not isinstance(raw_events, list):
        raise ScenarioError("events: must be a list")
    events = [_validate_event(ev, i, periods, g)
              for i, ev in enumerate(raw_events)]
    _check_planned_texts(events, dict(entities), periods)
    return ScenarioSpec(seed, (start, end), g, users, entities,
                        float(prob), float(overlap), events)


def load_scenario(path) -> ScenarioSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"scenario: cannot read {path}: {exc}") from exc
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


class _Emitter:
    def __init__(self, spec: ScenarioSpec, with_text: bool) -> None:
        self.rng = SplitMix64(spec.seed)
        self.spec = spec
        self.with_text = with_text
        self.rows: list[str] = []
        self.counter = 0
        self.spam_pool, self.ham_pool = class_pools(spec.vocab_overlap)

    def emit(self, period: Period, mentions: list[str], phi: int | None,
             text_kind: str | None) -> None:
        rng = self.rng
        self.counter += 1
        user = f"u{rng.below(self.spec.users):05d}"
        span = int((period.end - period.start).total_seconds())
        ts = period.start + timedelta(seconds=rng.below(span))
        stamp = ts.strftime("%Y-%m-%dT%H:%M:%SZ")
        if phi is None:
            phi = _draw_attitude(rng)
        pos, neg = _scores_for(phi)
        parts = []
        for m in mentions:
            conf = round(-5.0 + 8.0 * rng.uniform(), 3)
            parts.append(f"{_escape_entity(m)}:{conf}")
        fields = [f"t{self.counter:08d}", user, stamp, ";".join(parts),
                  str(pos), str(neg)]
        if self.with_text:
            if text_kind == "spam":
                fields.append(self._spam_text())
            else:
                fields.append(_phrase(rng, self.ham_pool))
        self.rows.append(csv_line(fields))

    def _spam_text(self) -> str:
        return _phrase(self.rng, self.spam_pool)


def generate(spec: ScenarioSpec) -> tuple[list[str], dict]:
    """Produce corpus CSV rows and the ground-truth manifest."""
    periods = enumerate_periods(spec.window[0], spec.window[1],
                                spec.granularity)
    roster = [eid for eid, _ in spec.entities]
    with_text = any(ev["kind"] == "spam-block" for ev in spec.events)
    emitter = _Emitter(spec, with_text)
    rng = emitter.rng
    spam_rows = 0
    manifest_events: list[dict] = []

    spikes: dict[tuple[str, Period], float] = {}
    for ev in spec.events:
        if ev["kind"] == "popularity-spike":
            key = (ev["entity"], ev["period"])
            spikes[key] = spikes.get(key, 1.0) * ev["factor"]

    by_period: dict[Period, list[dict]] = {}
    for ev in spec.events:
        by_period.setdefault(ev["period"], []).append(ev)

    for pi, period in enumerate(periods):
        for eid, rates in spec.entities:
            n = rates[pi]
            factor = spikes.get((eid, period))
            if factor is not None:
                n = int(round(n * factor))
            for _ in range(n):
                mentions = [eid]
                while (len(mentions) < 4 and roster
                       and rng.uniform() < spec.extra_mention_prob):
                    cand = roster[rng.below(len(roster))]
                    if cand not in mentions:
                        mentions.append(cand)
                emitter.emit(period, mentions, None, None)
        for ev in by_period.get(period, ()):
            kind = ev["kind"]
            if kind == "controversy-burst":
                for j in range(ev["texts"]):
                    emitter.emit(period, [ev["entity"]],
                                 3 if j % 2 == 0 else -3, None)
            elif kind == "pair-link":
                for _ in range(ev["texts"]):
                    emitter.emit(period, [ev["a"], ev["b"]], 0, None)
            elif kind == "signed-pair":
                for _ in range(ev["texts"]):
                    emitter.emit(period, [ev["a"], ev["b"]],
                                 ev["attitude"], None)
            elif kind == "spam-block":
                for _ in range(ev["texts"]):
                    emitter.emit(period, [], 0, "spam")
                spam_rows += ev["texts"]

    for ev in spec.events:
        entry = {k: v for k, v in ev.items() if k != "period"}
        entry["period"] = ev["period"].render()
        manifest_events.append(entry)

    manifest = {
        "seed": spec.seed,
        "rows": len(emitter.rows),
        "spam_rows": spam_rows,
        "window": {"from": spec.window[0].date().isoformat(),
                   "to": spec.window[1].date().isoformat()},
        "granularity": spec.granularity.value,
        "periods": [p.render() for p in periods],
        "entities": roster,
        "users": spec.users,
        "with_text": with_text,
        "events": manifest_events,
    }
    if not emitter.rows:
        manifest["events"] = []
    return emitter.rows, manifest


def write_corpus(spec: ScenarioSpec, corpus_path, manifest_path=None) -> dict:
    """Write rows (and optionally the manifest) to disk; returns the manifest."""
    rows, manifest = generate(spec)
    with write_atomic(corpus_path) as fh:
        fh.write("\n".join(rows) + ("\n" if rows else ""))
    if manifest_path is not None:
        with write_atomic(manifest_path) as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")
    return manifest


def generate_labeled_docs(n_docs: int, overlap: float, seed: int,
                          spam_fraction: float = 0.5
                          ) -> list[tuple[str, str]]:
    """Deterministic ``(text, label)`` training corpus for the spam filter.

    Class vocabularies share ``overlap`` of their tokens; the remainder is
    class-exclusive, so the corpus is separable by construction.
    """
    spam_pool, ham_pool = class_pools(overlap)
    rng = SplitMix64(seed)
    out = []
    for _ in range(n_docs):
        if rng.uniform() < spam_fraction:
            out.append((_phrase(rng, spam_pool), "spam"))
        else:
            out.append((_phrase(rng, ham_pool), "ham"))
    return out
