"""Calendar period algebra: granularities, timestamp-to-period mapping, enumeration.

A period is a half-open UTC interval [start, end) spanning exactly one
calendar unit (day, ISO week, month, or year). Weeks start on Monday per
ISO-8601, so they are locale-free and deterministic. Periods that only
partially overlap a query window are included whole. Periods are handed
out from one calendar per granularity (see below), so the same period
asked for twice is, within the calendar's span, one object.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import NamedTuple

UTC = timezone.utc


class Granularity(Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality. Enum.__hash__ is Python code, and the calendar
    # below is looked up by granularity on every call.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, token: str) -> "Granularity":
        """The granularity named by ``token``, ignoring case and outer spaces.

        Accepts a ``str`` only: any other type, like an unknown name, raises
        ``ValueError`` stating the accepted values.
        """
        expected = [g.value for g in cls]
        if not isinstance(token, str):
            raise ValueError(f"granularity must be a string, one of "
                             f"{expected}; got {token!r}")
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(f"unknown granularity {token!r}; expected one of "
                             f"{expected}") from None


def start_date(d: date, g: Granularity) -> date:
    """First day of the period of granularity ``g`` that contains day ``d``."""
    if g is Granularity.DAY:
        return d
    if g is Granularity.WEEK:
        return d - timedelta(days=d.weekday())
    if g is Granularity.MONTH:
        return d.replace(day=1)
    return date(d.year, 1, 1)


def _next_start(d: date, g: Granularity) -> date:
    if g is Granularity.DAY:
        return d + timedelta(days=1)
    if g is Granularity.WEEK:
        return d + timedelta(days=7)
    if g is Granularity.MONTH:
        return date(d.year + (d.month == 12), d.month % 12 + 1, 1)
    return date(d.year + 1, 1, 1)


class _PeriodFields(NamedTuple):
    start: datetime
    end: datetime
    granularity: Granularity


class Period(_PeriodFields):
    """Half-open interval [start, end) covering one calendar unit.

    A tuple of its three fields: it compares equal to a plain tuple of them
    and sorts by its start.
    """

    __slots__ = ()

    def __new__(cls, start: datetime, end: datetime,
                granularity: Granularity) -> Period:
        if start >= end:
            raise ValueError(f"degenerate period {start}..{end}")
        return super().__new__(cls, start, end, granularity)

    @classmethod
    def _make(cls, iterable) -> Period:
        # The tuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def start_date(self) -> date:
        return self.start.date()

    @property
    def end_date(self) -> date:
        return self.end.date()

    def contains(self, ts: datetime) -> bool:
        return self.start <= ts < self.end

    def render(self) -> str:
        """Canonical output form ``YYYY-MM-DD/YYYY-MM-DD``."""
        return f"{self.start_date.isoformat()}/{self.end_date.isoformat()}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


# The calendar: per granularity, a pair of lists holding consecutive
# periods in order and their boundaries (each period's start day, then the
# last period's end day), so a window's periods are two bisects and a
# slice. Periods are immutable, so one object per period serves every
# caller: a series over a 731-day window would otherwise build 731 periods
# per call, about half its time. A window outside the calendar extends it
# by the periods it adds, as long as its span stays within _CAPACITY
# periods; past that, the periods are built for the one call and the
# calendar is left as it was. An extension is published by one assignment
# of fresh lists, and a published list is never changed, so a concurrent
# reader always sees a consistent pair.
_CAPACITY = 4096
_calendars: dict[Granularity, tuple[list[date], list[Period]]] = {
    g: ([], []) for g in Granularity}
_DAY = timedelta(days=1)
_TICK = timedelta(microseconds=1)
_new = tuple.__new__


def _end(sd: date, g: Granularity) -> date:
    """The day after the period of ``g`` starting ``sd``, which is where it
    ends; ValueError if that is after ``date.max``."""
    try:
        return _next_start(sd, g)
    except (OverflowError, ValueError):
        raise ValueError(f"the {g.value} starting {sd.isoformat()} ends "
                         f"after {date.max.isoformat()}") from None


def _count(first: date, last: date, g: Granularity) -> int:
    """How many periods of ``g`` run from the one starting ``first``
    through the one starting ``last``."""
    if g is Granularity.DAY:
        return last.toordinal() - first.toordinal() + 1
    if g is Granularity.WEEK:
        return (last.toordinal() - first.toordinal()) // 7 + 1
    if g is Granularity.MONTH:
        return (last.year - first.year) * 12 + last.month - first.month + 1
    return last.year - first.year + 1


def _run(sd: date, last: date, g: Granularity
         ) -> tuple[list[date], list[Period]]:
    """Boundaries and periods, built anew, from the period of ``g`` starting
    ``sd`` through the one starting ``last``."""
    bounds, periods = [sd], []
    start = datetime(sd.year, sd.month, sd.day, tzinfo=UTC)
    while sd <= last:
        sd = _end(sd, g)
        end = datetime(sd.year, sd.month, sd.day, tzinfo=UTC)
        # start < end by construction: Period's own check is not needed.
        periods.append(_new(Period, (start, end, g)))
        bounds.append(sd)
        start = end
    return bounds, periods


def _cover(first: date, last: date, g: Granularity
           ) -> tuple[list[date], list[Period]]:
    """Boundaries and periods holding those of ``g`` from the one starting
    ``first`` through the one starting ``last``: the calendar, extended to
    them when the span stays within the capacity, else a run of their own.
    The capacity is checked before any period is built."""
    bounds, periods = _calendars[g]
    if bounds:
        span = _count(min(first, bounds[0]), max(last, bounds[-2]), g)
    else:
        span = _count(first, last, g)
    if span > _CAPACITY:
        return _run(first, last, g)
    if not bounds:
        bounds, periods = _run(first, last, g)
    else:
        if first < bounds[0]:
            head, head_periods = _run(first, bounds[0] - _DAY, g)
            bounds, periods = head[:-1] + bounds, head_periods + periods
        if last >= bounds[-1]:
            tail, tail_periods = _run(bounds[-1], last, g)
            bounds, periods = bounds + tail[1:], periods + tail_periods
    _calendars[g] = bounds, periods
    return bounds, periods


def period_containing(d: date, g: Granularity) -> Period:
    """The period of granularity ``g`` containing the UTC day ``d``: the
    calendar's own, or one built for the call if ``d`` is outside it."""
    bounds, periods = _calendars[g]
    i = bisect_right(bounds, d)
    if 0 < i < len(bounds):
        return periods[i - 1]
    # A day outside does not extend the calendar: the gap between them
    # could be thousands of periods, built for one.
    sd = start_date(d, g)
    return _run(sd, sd, g)[1][0]


def period_of(ts: datetime, g: Granularity) -> Period:
    """The unique period of granularity ``g`` containing ``ts``."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return period_containing(ts.astimezone(UTC).date(), g)


def _window_days(window_start: datetime, window_end: datetime
                 ) -> tuple[date, date] | None:
    """The UTC days of the first and the last instant of the half-open
    window [window_start, window_end), or None for an empty window. Naive
    datetimes are read as UTC."""
    if window_start.tzinfo is None:
        window_start = window_start.replace(tzinfo=UTC)
    if window_end.tzinfo is None:
        window_end = window_end.replace(tzinfo=UTC)
    if window_start >= window_end:
        return None
    return (window_start.astimezone(UTC).date(),
            (window_end.astimezone(UTC) - _TICK).date())


def window_starts(window_start: datetime, window_end: datetime,
                  g: Granularity) -> tuple[date, date] | None:
    """Start days of the first and the last period of granularity ``g``
    intersecting the window, or None for an empty window. Builds no
    period, but raises the ValueError that enumerating the window would:
    when its last period ends after ``date.max``."""
    days = _window_days(window_start, window_end)
    if days is None:
        return None
    first, last = days
    bounds = _calendars[g][0]
    lo = bisect_right(bounds, first) - 1
    hi = bisect_right(bounds, last)
    if lo < 0 or hi == len(bounds):
        last = start_date(last, g)
        _end(last, g)
        return start_date(first, g), last
    return bounds[lo], bounds[hi - 1]


def period_slice(window_start: datetime, window_end: datetime,
                 g: Granularity) -> tuple[list[date], list[Period]]:
    """The periods of granularity ``g`` intersecting [window_start,
    window_end), and their start days, as two parallel lists in order.

    Both are new lists the caller may keep; the periods are the calendar's
    own, so two windows inside its span share their period objects.
    """
    days = _window_days(window_start, window_end)
    if days is None:
        return [], []
    first, last = days
    bounds, periods = _calendars[g]
    lo = bisect_right(bounds, first) - 1
    hi = bisect_right(bounds, last)
    if lo < 0 or hi == len(bounds):
        bounds, periods = _cover(start_date(first, g), start_date(last, g), g)
        lo = bisect_right(bounds, first) - 1
        hi = bisect_right(bounds, last)
    return bounds[lo:hi], periods[lo:hi]


def enumerate_periods(window_start: datetime, window_end: datetime,
                      g: Granularity) -> list[Period]:
    """All periods of granularity ``g`` intersecting [window_start, window_end).

    Chronological and duplicate-free; empty for an empty window. A period
    that only partly overlaps the window is included whole. The list is new
    on each call; its periods come from the calendar (see ``period_slice``).
    """
    return period_slice(window_start, window_end, g)[1]


def parse_period_token(token: str, g: Granularity) -> Period:
    """Expand ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` to a full period of ``g``.

    The token names an instant (start of the named day/month/year); the
    result is the period of the requested granularity containing it.
    """
    return period_containing(_token_day(token), g)


def _token_day(token: str) -> date:
    """The first day named by a ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` token."""
    parts = token.strip().split("-")
    try:
        if len(parts) == 1:
            return date(int(parts[0]), 1, 1)
        if len(parts) == 2:
            return date(int(parts[0]), int(parts[1]), 1)
        if len(parts) == 3:
            return date(int(parts[0]), int(parts[1]), int(parts[2]))
    except (ValueError, OverflowError):  # a year past a C long overflows
        pass
    raise ValueError(f"bad period token {token!r}; expected YYYY, YYYY-MM "
                     f"or YYYY-MM-DD")


def _instant(token: str) -> datetime:
    """UTC midnight starting the day a period token names."""
    d = _token_day(token)
    return datetime(d.year, d.month, d.day, tzinfo=UTC)


def parse_window(from_token: str, to_token: str,
                 g: Granularity) -> tuple[datetime, datetime]:
    """Expand two period tokens into a half-open window [from, to).

    ``from`` is the start of its token's instant; ``to`` is exclusive, so
    ``--from 2015-01 --to 2016-01`` covers all of 2015.
    """
    start, end = _instant(from_token), _instant(to_token)
    if start >= end:
        raise ValueError(f"empty window: {from_token!r} .. {to_token!r}")
    return start, end
