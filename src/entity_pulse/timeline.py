"""Calendar period algebra: granularities, timestamp-to-period mapping, enumeration.

A period is a half-open UTC interval [start, end) spanning exactly one
calendar unit (day, ISO week, month, or year). Weeks start on Monday per
ISO-8601, so they are locale-free and deterministic. Periods that only
partially overlap a query window are included whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from functools import lru_cache

UTC = timezone.utc


class Granularity(Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality. Enum.__hash__ is Python code, and the period
    # cache below hashes a granularity on every lookup.
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


@dataclass(frozen=True, slots=True)
class Period:
    """Half-open interval [start, end) covering one calendar unit."""

    start: datetime
    end: datetime
    granularity: Granularity

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"degenerate period {self.start}..{self.end}")

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


# Periods are immutable, so one object per (start, granularity) can serve
# every caller. A series over a 731-day window would otherwise build 731
# new periods per call: about half its time, and most of the objects that
# drive the cyclic garbage collector on a warm query path.
@lru_cache(maxsize=4096)
def _from_start(sd: date, g: Granularity) -> Period:
    try:
        ed = _next_start(sd, g)
    except (OverflowError, ValueError):
        raise ValueError(f"the {g.value} starting {sd.isoformat()} ends "
                         f"after {date.max.isoformat()}") from None
    return Period(datetime(sd.year, sd.month, sd.day, tzinfo=UTC),
                  datetime(ed.year, ed.month, ed.day, tzinfo=UTC), g)


def period_containing(d: date, g: Granularity) -> Period:
    """The period of granularity ``g`` containing the UTC day ``d``."""
    return _from_start(start_date(d, g), g)


def period_of(ts: datetime, g: Granularity) -> Period:
    """The unique period of granularity ``g`` containing ``ts``."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return period_containing(ts.astimezone(UTC).date(), g)


def enumerate_periods(window_start: datetime, window_end: datetime,
                      g: Granularity) -> list[Period]:
    """All periods of granularity ``g`` intersecting [window_start, window_end).

    Chronological and duplicate-free; empty for an empty window.
    """
    if window_start.tzinfo is None:
        window_start = window_start.replace(tzinfo=UTC)
    if window_end.tzinfo is None:
        window_end = window_end.replace(tzinfo=UTC)
    if window_start >= window_end:
        return []
    end_limit = window_end.astimezone(UTC)
    p = _from_start(start_date(window_start.astimezone(UTC).date(), g), g)
    out = [p]
    # The next period starts where this one ends, so none is built that
    # starts at or after the window end.
    while p.end < end_limit:
        p = _from_start(p.end.date(), g)
        out.append(p)
    return out


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
