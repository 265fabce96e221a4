"""Per-period entity measures, series, and top-K period ranking.

Six measures are answerable straight from index postings:

* ``popularity_c``  — share of the period's texts mentioning the entity
* ``popularity_u``  — share of the period's distinct users mentioning it
* ``popularity_cu`` — product of the two popularity shares
* ``attitude``      — mean per-text attitude over mentioning texts, [-4, 4]
* ``sentimentality``— mean per-text sentimentality, [0, 8]
* ``controversiality`` — strong-attitude coverage times the balance of
  strongly-positive vs strongly-negative texts, [0, 1]

A measure is ``None`` exactly when its defining denominator is zero (an
empty period for the popularity family, no mentioning texts for the rest);
ranking skips undefined periods rather than fabricating neutral values.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Callable

from .corpus import csv_line
from .index import _ATT, _NEG, _POS, _SENT, _TC, _USERS, EntityIndex
from .timeline import Period, enumerate_periods


@dataclass(frozen=True, slots=True)
class MeasurePoint:
    entity_id: str
    period: Period
    value: float | None
    support: int  # mentioning-text count behind the value


@dataclass(frozen=True, slots=True)
class RankedPeriods:
    entity_id: str
    measure: str
    direction: str  # "high" | "low"
    k: int
    items: tuple[tuple[Period, float], ...]


def popularity_c(index: EntityIndex, entity: str, period: Period
                 ) -> MeasurePoint:
    counts = index.slice_counts(period)
    raw = index.posting_counts(entity, period)
    tc = 0 if raw is None else raw[_TC]
    if counts is None or counts[0] == 0:
        return MeasurePoint(entity, period, None, tc)
    return MeasurePoint(entity, period, tc / counts[0], tc)


def popularity_u(index: EntityIndex, entity: str, period: Period
                 ) -> MeasurePoint:
    counts = index.slice_counts(period)
    raw = index.posting_counts(entity, period)
    tc = 0 if raw is None else raw[_TC]
    if counts is None or counts[1] == 0:
        return MeasurePoint(entity, period, None, tc)
    uc = 0 if raw is None else raw[_USERS]
    return MeasurePoint(entity, period, uc / counts[1], tc)


def popularity_cu(index: EntityIndex, entity: str, period: Period
                  ) -> MeasurePoint:
    pc = popularity_c(index, entity, period)
    pu = popularity_u(index, entity, period)
    if pc.value is None or pu.value is None:
        return MeasurePoint(entity, period, None, pc.support)
    return MeasurePoint(entity, period, pc.value * pu.value, pc.support)


def attitude(index: EntityIndex, entity: str, period: Period) -> MeasurePoint:
    raw = index.posting_counts(entity, period)
    if raw is None:
        return MeasurePoint(entity, period, None, 0)
    return MeasurePoint(entity, period, raw[_ATT] / raw[_TC], raw[_TC])


def sentimentality(index: EntityIndex, entity: str, period: Period
                   ) -> MeasurePoint:
    raw = index.posting_counts(entity, period)
    if raw is None:
        return MeasurePoint(entity, period, None, 0)
    return MeasurePoint(entity, period, raw[_SENT] / raw[_TC], raw[_TC])


def controversiality(index: EntityIndex, entity: str, period: Period
                     ) -> MeasurePoint:
    raw = index.posting_counts(entity, period)
    if raw is None:
        return MeasurePoint(entity, period, None, 0)
    pos, neg = raw[_POS], raw[_NEG]
    hi = max(pos, neg)
    if hi == 0:
        # No strong texts at all: consensus, not controversy.
        return MeasurePoint(entity, period, 0.0, raw[_TC])
    value = (pos + neg) / raw[_TC] * (min(pos, neg) / hi)
    return MeasurePoint(entity, period, value, raw[_TC])


MeasureFn = Callable[[EntityIndex, str, Period], MeasurePoint]

MEASURES: dict[str, MeasureFn] = {
    "popularity_c": popularity_c,
    "popularity_u": popularity_u,
    "popularity_cu": popularity_cu,
    "attitude": attitude,
    "sentimentality": sentimentality,
    "controversiality": controversiality,
}


def _measure_fn(measure: str) -> MeasureFn:
    try:
        return MEASURES[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}; expected one of "
                         f"{sorted(MEASURES)}") from None


def series(index: EntityIndex, entity: str, window: tuple[datetime, datetime],
           measure: str) -> list[MeasurePoint]:
    """One point per period of the index granularity intersecting the window.

    Chronological; undefined periods appear as ``None``-valued points.
    """
    fn = _measure_fn(measure)
    return [fn(index, entity, p)
            for p in enumerate_periods(window[0], window[1],
                                       index.granularity)]


def top_k_periods(index: EntityIndex, entity: str,
                  window: tuple[datetime, datetime], measure: str, k: int,
                  direction: str = "high") -> RankedPeriods:
    """The k defined-valued periods with the most extreme measure values.

    Ranking a sum of independent per-period scores over all size-k period
    subsets reduces to per-period top-k selection, which is what this does.
    Ties break chronologically (earlier period first); fewer than k defined
    periods yield a shorter list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if direction not in ("high", "low"):
        raise ValueError(f"direction must be 'high' or 'low', got {direction!r}")
    defined = [(p.period, p.value) for p in series(index, entity, window, measure)
               if p.value is not None]
    if direction == "high":
        defined.sort(key=lambda pv: (-pv[1], pv[0].start))
    else:
        defined.sort(key=lambda pv: (pv[1], pv[0].start))
    return RankedPeriods(entity, measure, direction, k, tuple(defined[:k]))


# -- stable output formats ---------------------------------------------------

def series_csv_rows(points: list[MeasurePoint], measure: str) -> list[str]:
    """CSV rows ``entity,period_start,period_end,measure,value,support``."""
    return [
        csv_line([p.entity_id, p.period.start_date.isoformat(),
                  p.period.end_date.isoformat(), measure,
                  "" if p.value is None else repr(p.value), p.support])
        for p in points
    ]


def series_json_records(points: list[MeasurePoint], measure: str) -> list[dict]:
    return [{"entity": p.entity_id,
             "period_start": p.period.start_date.isoformat(),
             "period_end": p.period.end_date.isoformat(),
             "measure": measure,
             "value": p.value,
             "support": p.support} for p in points]


def ranked_periods_csv_rows(ranked: RankedPeriods,
                            index: EntityIndex) -> list[str]:
    """CSV rows ``rank,entity,period_start,period_end,measure,value,support``."""
    rows = []
    for rank, (period, value) in enumerate(ranked.items, start=1):
        raw = index.posting_counts(ranked.entity_id, period)
        support = 0 if raw is None else raw[_TC]
        rows.append(csv_line([rank, ranked.entity_id,
                              period.start_date.isoformat(),
                              period.end_date.isoformat(), ranked.measure,
                              repr(value), support]))
    return rows


def ranked_periods_json_records(ranked: RankedPeriods,
                                index: EntityIndex) -> list[dict]:
    out = []
    for rank, (period, value) in enumerate(ranked.items, start=1):
        raw = index.posting_counts(ranked.entity_id, period)
        out.append({"rank": rank,
                    "entity": ranked.entity_id,
                    "period_start": period.start_date.isoformat(),
                    "period_end": period.end_date.isoformat(),
                    "measure": ranked.measure,
                    "direction": ranked.direction,
                    "value": value,
                    "support": 0 if raw is None else raw[_TC]})
    return out
