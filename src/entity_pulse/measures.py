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

Each measure is a kernel: a pure function of one period's raw posting and
slice counts (either may be ``None``) to ``(value, support)``. A series
looks the kernel and the entity's postings up once and takes the window's
periods, with their start days, as one slice of the calendar
(``timeline.period_slice``). It then calls the kernel per start day,
skipping the granularity check that the single-period wrappers keep: the
slice is at the index's granularity. Top-k walks the same slice for the
popularity measures, which are defined wherever a period has texts.
Attitude, sentimentality and controversiality are defined exactly where
the entity has a posting, so their top-k ranks only the entity's postings
between the window's first and last period start, and builds a period
only for each of the k it returns.
"""

from __future__ import annotations

from datetime import date, datetime
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .files import csv_line
from .index import _ATT, _NEG, _POS, _SENT, _TC, _USERS, EntityIndex
from .timeline import (Period, period_containing, period_slice,
                       window_starts)


class MeasurePoint(NamedTuple):
    entity_id: str
    period: Period
    value: float | None
    support: int  # mentioning-text count behind the value


class RankedPeriods(NamedTuple):
    entity_id: str
    measure: str
    direction: str  # "high" | "low"
    k: int
    items: tuple[tuple[Period, float], ...]


# -- kernels: (posting | None, slice counts | None) -> (value, support) ------

def _popularity_c(raw, counts):
    tc = 0 if raw is None else raw[_TC]
    if counts is None or counts[0] == 0:
        return None, tc
    return tc / counts[0], tc


def _popularity_u(raw, counts):
    tc, uc = (0, 0) if raw is None else (raw[_TC], raw[_USERS])
    if counts is None or counts[1] == 0:
        return None, tc
    return uc / counts[1], tc


def _popularity_cu(raw, counts):
    tc, uc = (0, 0) if raw is None else (raw[_TC], raw[_USERS])
    if counts is None or counts[0] == 0 or counts[1] == 0:
        return None, tc
    return tc / counts[0] * (uc / counts[1]), tc


def _attitude(raw, counts):
    return (None, 0) if raw is None else (raw[_ATT] / raw[_TC], raw[_TC])


def _sentimentality(raw, counts):
    return (None, 0) if raw is None else (raw[_SENT] / raw[_TC], raw[_TC])


def _controversiality(raw, counts):
    if raw is None:
        return None, 0
    pos, neg = raw[_POS], raw[_NEG]
    if pos == neg == 0:  # no strong texts at all: consensus, not controversy
        return 0.0, raw[_TC]
    return (pos + neg) / raw[_TC] * (min(pos, neg) / max(pos, neg)), raw[_TC]


Kernel = Callable[[tuple | None, tuple | None], tuple]
_KERNELS: dict[str, Kernel] = {
    "popularity_c": _popularity_c,
    "popularity_u": _popularity_u,
    "popularity_cu": _popularity_cu,
    "attitude": _attitude,
    "sentimentality": _sentimentality,
    "controversiality": _controversiality,
}
MeasureFn = Callable[[EntityIndex, str, Period], MeasurePoint]


def _single_period(name: str, kernel: Kernel) -> MeasureFn:
    def measure(index: EntityIndex, entity: str, period: Period):
        value, support = kernel(index.posting_counts(entity, period),
                                index.slice_counts(period))
        return MeasurePoint(entity, period, value, support)
    measure.__name__ = measure.__qualname__ = name
    measure.__doc__ = f"The entity's {name} in one period of the index."
    return measure


MEASURES: dict[str, MeasureFn] = {name: _single_period(name, kernel)
                                  for name, kernel in _KERNELS.items()}
(popularity_c, popularity_u, popularity_cu, attitude, sentimentality,
 controversiality) = MEASURES.values()


# The measures defined exactly where the entity has a posting: their
# kernels read no slice counts and give None only for a missing posting.
_POSTING_ONLY = frozenset({"attitude", "sentimentality", "controversiality"})
_point = tuple.__new__  # a MeasurePoint from a 4-tuple, without __new__
_value = itemgetter(1)


def _kernel(measure: str) -> Kernel:
    kernel = _KERNELS.get(measure)
    if kernel is None:
        raise ValueError(f"unknown measure {measure!r}; expected one of "
                         f"{sorted(_KERNELS)}")
    return kernel


def series(index: EntityIndex, entity: str, window: tuple[datetime, datetime],
           measure: str) -> list[MeasurePoint]:
    """One point per period of the index granularity intersecting the window.

    Chronological; undefined periods appear as ``None``-valued points.
    """
    kernel = _kernel(measure)
    starts, periods = period_slice(*window, index.granularity)
    per, slices = index.entity_postings(entity), index.slices
    return [_point(MeasurePoint, (entity, p, value, support))
            for d, p in zip(starts, periods)
            for value, support in [kernel(per.get(d), slices.get(d))]]


def _posting_values(index: EntityIndex, entity: str,
                    window: tuple[datetime, datetime], kernel: Kernel
                    ) -> list[tuple[date, float]]:
    """(period start, value) for each of the entity's postings in the
    window, chronological: for a measure defined exactly where a posting
    is. The postings are in ascending period order, so filtering them to
    the window's first and last period start keeps that order."""
    span = window_starts(*window, index.granularity)
    if span is None:
        return []
    first, last = span
    return [(d, kernel(raw, None)[0])
            for d, raw in index.entity_postings(entity).items()
            if first <= d <= last]


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
    kernel, g = _kernel(measure), index.granularity
    # Each sort is stable, also reversed, so ties stay chronological.
    if measure in _POSTING_ONLY:
        defined = _posting_values(index, entity, window, kernel)
        defined.sort(key=_value, reverse=direction == "high")
        items = tuple((period_containing(d, g), value)
                      for d, value in defined[:k])
    else:
        starts, periods = period_slice(*window, g)
        per, slices = index.entity_postings(entity), index.slices
        defined = [(p, value) for d, p in zip(starts, periods)
                   for value, _ in [kernel(per.get(d), slices.get(d))]
                   if value is not None]
        defined.sort(key=_value, reverse=direction == "high")
        items = tuple(defined[:k])
    return RankedPeriods(entity, measure, direction, k, items)


# -- stable output formats ---------------------------------------------------

def series_csv_rows(points: list[MeasurePoint], measure: str) -> list[str]:
    """CSV rows ``entity,period_start,period_end,measure,value,support``."""
    return [csv_line([p.entity_id, p.period.start_date.isoformat(),
                      p.period.end_date.isoformat(), measure,
                      p.value, p.support])
            for p in points]


def series_json_records(points: list[MeasurePoint], measure: str) -> list[dict]:
    return [{"entity": p.entity_id,
             "period_start": p.period.start_date.isoformat(),
             "period_end": p.period.end_date.isoformat(),
             "measure": measure, "value": p.value, "support": p.support}
            for p in points]


def _ranked(ranked: RankedPeriods, index: EntityIndex
            ) -> Iterator[tuple[int, Period, float, int]]:
    """(rank, period, value, support) for each ranked period."""
    for rank, (period, value) in enumerate(ranked.items, start=1):
        raw = index.posting_counts(ranked.entity_id, period)
        yield rank, period, value, 0 if raw is None else raw[_TC]


def ranked_periods_csv_rows(ranked: RankedPeriods,
                            index: EntityIndex) -> list[str]:
    """CSV rows ``rank,entity,period_start,period_end,measure,value,support``."""
    return [csv_line([rank, ranked.entity_id, period.start_date.isoformat(),
                      period.end_date.isoformat(), ranked.measure,
                      value, support])
            for rank, period, value, support in _ranked(ranked, index)]


def ranked_periods_json_records(ranked: RankedPeriods,
                                index: EntityIndex) -> list[dict]:
    return [{"rank": rank,
             "entity": ranked.entity_id,
             "period_start": period.start_date.isoformat(),
             "period_end": period.end_date.isoformat(),
             "measure": ranked.measure, "direction": ranked.direction,
             "value": value, "support": support}
            for rank, period, value, support in _ranked(ranked, index)]
