"""Entity-to-entity connectedness and k-Network queries.

``direct_connectedness(e, e')`` is the share of e's mentioning texts that
also mention e'. It is deliberately asymmetric: a niche entity can be
dominated by a major one while barely registering in the other direction.

``indirect_connectedness`` compares the two entities' co-mention
neighborhoods. By default the query entities themselves are removed from
both neighborhoods before comparing (an entity trivially neighbors itself
in every one of its texts, which would inflate the overlap);
``include_self=True`` keeps the full neighborhoods for comparison runs.

A k-Network ranks the co-occurring entities by direct connectedness; the
signed variants first restrict candidates to pairs whose mean shared-text
attitude clears ``+delta`` (positive) or ``-delta`` (negative). A pair with
mean attitude exactly zero qualifies only on the positive side, so the two
signed candidate sets are disjoint even at ``delta = 0``. ``min_support``
drops pairs with too few shared texts for their mean to be trustworthy.

Tie order everywhere: score descending, then shared-text count descending,
then co-entity id ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import csv_line
from .index import _CO, _TC, EntityIndex
from .timeline import Period


@dataclass(frozen=True, slots=True)
class RankedNetwork:
    entity_id: str
    period: Period
    variant: str  # "plain" | "positive" | "negative"
    delta: float | None  # threshold used by signed variants
    entries: tuple[tuple[str, float, int], ...]  # (co-entity, score, texts)


def direct_connectedness(index: EntityIndex, entity: str, other: str,
                         period: Period) -> float | None:
    """Share of ``entity``'s texts in the period that also mention ``other``.

    ``None`` when the entity has no mentioning texts in the period.
    """
    if entity == other:
        raise ValueError("direct connectedness of an entity with itself")
    raw = index.posting_counts(entity, period)
    if raw is None:
        return None
    oid = index.entity_id_of(other)
    pair = None if oid is None else raw[_CO].get(oid)
    shared = 0 if pair is None else pair[0]
    return shared / raw[_TC]


def indirect_connectedness(index: EntityIndex, entity: str, other: str,
                           period: Period, *,
                           include_self: bool = False) -> float | None:
    """Neighborhood overlap of the two entities, normalized by ``entity``'s.

    ``None`` when ``entity``'s neighborhood is empty (no mentioning texts,
    or only self-mentions once the query entities are removed).
    """
    if entity == other:
        raise ValueError("indirect connectedness of an entity with itself")
    raw = index.posting_counts(entity, period)
    if raw is None:
        return None
    other_raw = index.posting_counts(other, period)
    eid, oid = index.entity_id_of(entity), index.entity_id_of(other)
    # A neighborhood is the co-occurring entities plus the entity itself.
    mine = raw[_CO].keys() | {eid}
    theirs = set() if other_raw is None else other_raw[_CO].keys() | {oid}
    if not include_self:
        mine -= {eid, oid}
        theirs -= {eid, oid}
    if not mine:
        return None
    return len(mine & theirs) / len(mine)


def connectedness_to_set(index: EntityIndex, entity: str, others, period: Period
                         ) -> float | None:
    """Mean direct connectedness from ``entity`` to each entity in ``others``."""
    targets = list(dict.fromkeys(others))
    if not targets:
        raise ValueError("target set must be non-empty")
    if entity in targets:
        raise ValueError("target set must not contain the query entity")
    scores = [direct_connectedness(index, entity, o, period) for o in targets]
    if any(s is None for s in scores):
        return None
    return sum(scores) / len(scores)


def _ranked(index: EntityIndex, entity: str, raw,
            candidates: list[tuple[int, int]], k: int) -> list:
    names = index.entities
    tc = raw[_TC]
    scored = [(cnt / tc, cnt, names[eid]) for eid, cnt in candidates]
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return [(name, score, cnt) for score, cnt, name in scored[:k]]


def k_network(index: EntityIndex, entity: str, period: Period,
              k: int) -> RankedNetwork:
    """Top-k co-occurring entities by direct connectedness.

    Selecting the size-k subset with the highest mean connectedness is the
    same as taking the k individually best-connected entities, so a sort
    suffices. Fewer than k co-occurring entities yield a shorter list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    raw = index.posting_counts(entity, period)
    if raw is None:
        return RankedNetwork(entity, period, "plain", None, ())
    candidates = [(eid, cnt) for eid, (cnt, _) in raw[_CO].items()]
    return RankedNetwork(entity, period, "plain", None,
                         tuple(_ranked(index, entity, raw, candidates, k)))


def signed_k_network(index: EntityIndex, entity: str, period: Period, k: int,
                     sign: str, delta: float,
                     min_support: int = 1) -> RankedNetwork:
    """k-Network restricted to strongly positive / negative co-occurrences.

    A co-entity qualifies when the mean attitude of the shared texts is
    >= delta (sign="positive") or <= -delta with at least one genuinely
    negative shared text on average (sign="negative"), and the pair has at
    least ``min_support`` shared texts.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sign not in ("positive", "negative"):
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")
    if not (0.0 <= delta <= 4.0):
        raise ValueError(f"delta must be in [0, 4], got {delta}")
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    raw = index.posting_counts(entity, period)
    if raw is None:
        return RankedNetwork(entity, period, sign, delta, ())
    candidates = []
    for eid, (cnt, att_sum) in raw[_CO].items():
        if cnt < min_support:
            continue
        mean = att_sum / cnt
        if sign == "positive":
            if mean >= delta:
                candidates.append((eid, cnt))
        elif mean <= -delta and mean != 0.0:
            candidates.append((eid, cnt))
    return RankedNetwork(entity, period, sign, delta,
                         tuple(_ranked(index, entity, raw, candidates, k)))


# -- stable output formats ---------------------------------------------------

def network_csv_rows(network: RankedNetwork) -> list[str]:
    """CSV rows ``rank,entity,score,support``."""
    return [csv_line([rank, name, repr(score), cnt])
            for rank, (name, score, cnt) in enumerate(network.entries, 1)]


def network_json_records(network: RankedNetwork) -> list[dict]:
    return [{"rank": rank,
             "entity": name,
             "score": score,
             "support": cnt,
             "variant": network.variant,
             "source": network.entity_id,
             "period_start": network.period.start_date.isoformat(),
             "period_end": network.period.end_date.isoformat()}
            for rank, (name, score, cnt) in enumerate(network.entries, 1)]


def network_edge_rows(network: RankedNetwork) -> list[str]:
    """Graph dump rows ``source,target,score,support`` for external plotting."""
    return [csv_line([network.entity_id, name, repr(score), cnt])
            for name, score, cnt in network.entries]
