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

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .corpus import csv_line
from .index import _CO, _TC, EntityIndex, _check_delta
from .timeline import Period

_co_entity = itemgetter(0)  # of a co-occurrence triple


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
    return _shared_texts(raw[_CO], index.entity_id_of(other)) / raw[_TC]


def _shared_texts(co, oid: int | None) -> int:
    """Entity ``oid``'s shared-text count in the triples ``co``, or 0."""
    i = len(co) if oid is None else bisect_left(co, oid, key=_co_entity)
    return co[i][1] if i < len(co) and co[i][0] == oid else 0


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
    # A neighborhood is the co-entities plus the entity itself, and no
    # entity is its own co-entity.
    mine = set(map(_co_entity, raw[_CO]))
    theirs = () if other_raw is None else other_raw[_CO]
    shared = len(mine.intersection(map(_co_entity, theirs)))
    if include_self:  # entity joins mine and, if it has texts, other theirs
        size = len(mine) + 1
        if other_raw is not None:
            shared += (oid in mine) + (_shared_texts(theirs, eid) > 0)
    else:  # other leaves mine and entity leaves theirs
        size = len(mine) - (oid in mine)
    return shared / size if size else None


def connectedness_to_set(index: EntityIndex, entity: str, others, period: Period
                         ) -> float | None:
    """Mean direct connectedness from ``entity`` to each entity in ``others``."""
    targets = list(dict.fromkeys(others))
    if not targets:
        raise ValueError("target set must be non-empty")
    if entity in targets:
        raise ValueError("target set must not contain the query entity")
    raw = index.posting_counts(entity, period)
    if raw is None:
        return None
    scores = [_shared_texts(raw[_CO], index.entity_id_of(o)) / raw[_TC]
              for o in targets]
    return sum(scores) / len(scores)


def _ranked(index: EntityIndex, raw, triples, k: int) -> list:
    names = index.entities
    tc = raw[_TC]
    scored = [(cnt / tc, cnt, names[eid]) for eid, cnt, _ in triples]
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
    return RankedNetwork(entity, period, "plain", None,
                         tuple(_ranked(index, raw, raw[_CO], k)))


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
    _check_delta(delta)
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    raw = index.posting_counts(entity, period)
    if raw is None:
        return RankedNetwork(entity, period, sign, delta, ())
    candidates = []
    for rec in raw[_CO]:
        _, cnt, att_sum = rec
        mean = att_sum / cnt
        if cnt >= min_support and (mean >= delta if sign == "positive" else
                                   mean <= -delta and mean != 0.0):
            candidates.append(rec)
    return RankedNetwork(entity, period, sign, delta,
                         tuple(_ranked(index, raw, candidates, k)))


# -- stable output formats ---------------------------------------------------

def network_csv_rows(network: RankedNetwork) -> list[str]:
    """CSV rows ``rank,entity,score,support``."""
    return [csv_line([rank, name, score, cnt])
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
    return [csv_line([network.entity_id, name, score, cnt])
            for name, score, cnt in network.entries]
