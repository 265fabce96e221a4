from contextlib import contextmanager
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entity_pulse import timeline
from entity_pulse.timeline import (Granularity, Period, enumerate_periods,
                                   parse_period_token, parse_window,
                                   period_of, start_date)

UTC = timezone.utc


def dt(*args):
    return datetime(*args, tzinfo=UTC)


class TestPeriodOf:
    def test_month(self):
        p = period_of(dt(2015, 7, 5, 10), Granularity.MONTH)
        assert (p.start, p.end) == (dt(2015, 7, 1), dt(2015, 8, 1))

    def test_year_boundary_inclusive_start(self):
        p = period_of(dt(2016, 1, 1, 0), Granularity.YEAR)
        assert (p.start, p.end) == (dt(2016, 1, 1), dt(2017, 1, 1))

    def test_iso_week_crosses_year(self):
        # 2015-01-01 falls in ISO week 2015-W01, which starts Mon 2014-12-29.
        p = period_of(dt(2015, 1, 1, 12), Granularity.WEEK)
        assert (p.start, p.end) == (dt(2014, 12, 29), dt(2015, 1, 5))

    def test_day(self):
        p = period_of(dt(2016, 2, 29, 23, 59), Granularity.DAY)
        assert (p.start, p.end) == (dt(2016, 2, 29), dt(2016, 3, 1))

    def test_naive_timestamp_read_as_utc(self):
        p = period_of(datetime(2015, 7, 5, 10), Granularity.MONTH)
        assert p.start == dt(2015, 7, 1)


class TestEnumerate:
    def test_full_year_of_months(self):
        ps = enumerate_periods(dt(2015, 1, 1), dt(2016, 1, 1),
                               Granularity.MONTH)
        assert len(ps) == 12
        assert ps[0].start == dt(2015, 1, 1)
        assert ps[-1].end == dt(2016, 1, 1)

    def test_partial_overlap_included_whole(self):
        ps = enumerate_periods(dt(2015, 6, 15), dt(2015, 7, 15),
                               Granularity.MONTH)
        assert [(p.start, p.end) for p in ps] == [
            (dt(2015, 6, 1), dt(2015, 7, 1)),
            (dt(2015, 7, 1), dt(2015, 8, 1)),
        ]

    def test_leap_year_day_count(self):
        ps = enumerate_periods(dt(2016, 1, 1), dt(2017, 1, 1),
                               Granularity.DAY)
        assert len(ps) == 366

    def test_empty_window(self):
        assert enumerate_periods(dt(2015, 1, 1), dt(2015, 1, 1),
                                 Granularity.DAY) == []

    def test_single_instant_window(self):
        ps = enumerate_periods(dt(2015, 3, 10, 5), dt(2015, 3, 10, 6),
                               Granularity.YEAR)
        assert len(ps) == 1
        assert ps[0].start == dt(2015, 1, 1)

    def test_window_ending_on_the_last_day(self):
        ps = enumerate_periods(dt(9999, 12, 29), dt(9999, 12, 31),
                               Granularity.DAY)
        assert [p.end for p in ps] == [dt(9999, 12, 30), dt(9999, 12, 31)]

    @pytest.mark.parametrize("g", list(Granularity))
    def test_period_ending_past_the_last_day_is_a_value_error(self, g):
        with pytest.raises(ValueError, match="ends after 9999-12-31"):
            period_of(dt(9999, 12, 31, 10), g)
        if g is not Granularity.DAY:
            with pytest.raises(ValueError, match="ends after 9999-12-31"):
                enumerate_periods(dt(9999, 12, 30), dt(9999, 12, 31), g)

    def test_window_instants_need_no_period(self):
        assert parse_window("9999-12", "9999-12-31", Granularity.YEAR) == \
            (dt(9999, 12, 1), dt(9999, 12, 31))


_granularities = st.sampled_from(list(Granularity))
_instants = st.datetimes(min_value=datetime(1990, 1, 1),
                         max_value=datetime(2100, 1, 1)).map(
    lambda d: d.replace(tzinfo=UTC, microsecond=0))


class TestPartitionProperty:
    # A century-long window at day granularity is ~40k periods, which takes
    # about Hypothesis's default 200 ms deadline on a slow 2-core machine;
    # this property checks tiling, not speed.
    @settings(deadline=None)
    @given(_instants, _instants, _granularities)
    def test_periods_tile_the_window(self, a, b, g):
        start, end = min(a, b), max(a, b)
        ps = enumerate_periods(start, end, g)
        if start == end:
            assert ps == []
            return
        # Consecutive, disjoint, and covering: each period starts where the
        # previous one ends, the first contains the window start, the last
        # contains the final instant.
        assert ps[0].start <= start < ps[0].end
        assert ps[-1].start < end <= ps[-1].end
        for prev, cur in zip(ps, ps[1:]):
            assert prev.end == cur.start

    @given(_instants, st.integers(0, 400), _granularities)
    def test_assign_lands_in_enumeration(self, start, days, g):
        end = start + timedelta(days=days, hours=7)
        ps = enumerate_periods(start, end, g)
        probe = start + (end - start) / 2
        assert period_of(probe, g) in ps

    @given(_instants, _granularities)
    def test_assign_contains_instant(self, t, g):
        p = period_of(t, g)
        assert p.contains(t)
        assert p.granularity is g


class TestTokens:
    def test_render(self):
        assert month_period().render() == "2015-07-01/2015-08-01"

    def test_parse_tokens(self):
        assert parse_period_token("2015", Granularity.YEAR).start == dt(2015, 1, 1)
        assert parse_period_token("2015-07", Granularity.MONTH) == month_period()
        p = parse_period_token("2015-01-01", Granularity.WEEK)
        assert p.start == dt(2014, 12, 29)

    def test_parse_window_to_is_exclusive(self):
        start, end = parse_window("2015-01", "2016-01", Granularity.MONTH)
        assert (start, end) == (dt(2015, 1, 1), dt(2016, 1, 1))

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_period_token("julio", Granularity.MONTH)
        with pytest.raises(ValueError):
            parse_period_token("2015-13", Granularity.MONTH)
        with pytest.raises(ValueError):
            parse_window("2016-01", "2015-01", Granularity.MONTH)

    @pytest.mark.parametrize("token", ["99999999999999999999",
                                       "2015-99999999999999999999",
                                       "2015-01-99999999999999999999"])
    def test_numbers_past_a_c_long_are_bad_tokens(self, token):
        with pytest.raises(ValueError, match="bad period token"):
            parse_period_token(token, Granularity.DAY)
        with pytest.raises(ValueError, match="bad period token"):
            parse_window("2015-01", token, Granularity.DAY)

    def test_granularity_parse(self):
        assert Granularity.parse(" Month ") is Granularity.MONTH
        with pytest.raises(ValueError):
            Granularity.parse("fortnight")
        for token in (5, None, ["month"]):
            with pytest.raises(ValueError, match="granularity"):
                Granularity.parse(token)

    def test_degenerate_period_rejected(self):
        with pytest.raises(ValueError):
            Period(dt(2015, 1, 2), dt(2015, 1, 1), Granularity.DAY)

    def test_replace_keeps_the_bounds_check(self):
        p = Period(dt(2015, 1, 1), dt(2015, 1, 2), Granularity.DAY)
        assert p._replace(end=dt(2015, 1, 3)) == (
            dt(2015, 1, 1), dt(2015, 1, 3), Granularity.DAY)
        with pytest.raises(ValueError):
            p._replace(start=dt(2015, 1, 2))
        with pytest.raises(ValueError):
            Period._make((dt(2015, 1, 2), dt(2015, 1, 1), Granularity.DAY))


def month_period():
    return period_of(dt(2015, 7, 10), Granularity.MONTH)


@contextmanager
def own_calendar():
    """Run the block with an empty calendar of its own, and give the
    process's calendar back afterwards."""
    saved = timeline._calendars
    timeline._calendars = {g: ([], []) for g in Granularity}
    try:
        yield timeline._calendars
    finally:
        timeline._calendars = saved


@pytest.fixture
def calendar():
    with own_calendar() as cal:
        yield cal


@pytest.fixture
def built(monkeypatch):
    """The start days of the periods built from here on: every period's end
    is computed from its start by ``_next_start``."""
    starts = []
    next_start = timeline._next_start

    def counting(d, g):
        starts.append(d)
        return next_start(d, g)
    monkeypatch.setattr(timeline, "_next_start", counting)
    return starts


def reference(window_start, window_end, g):
    """The periods of ``g`` intersecting the window, each built on its own
    from the calendar arithmetic, with no calendar."""
    window_start, window_end = (t if t.tzinfo else t.replace(tzinfo=UTC)
                                for t in (window_start, window_end))
    if window_start >= window_end:
        return []
    out = []
    d = start_date(window_start.astimezone(UTC).date(), g)
    while dt(d.year, d.month, d.day) < window_end:
        e = timeline._next_start(d, g)
        out.append(Period(dt(d.year, d.month, d.day),
                          dt(e.year, e.month, e.day), g))
        d = e
    return out


DAY = Granularity.DAY
# A window of more periods than the calendar holds, per granularity.
WIDER_THAN_THE_CAPACITY = {
    Granularity.DAY: (dt(2000, 1, 1), dt(2030, 1, 1)),
    Granularity.WEEK: (dt(1900, 1, 1), dt(2000, 1, 1)),
    Granularity.MONTH: (dt(1500, 1, 1), dt(1900, 1, 1)),
    Granularity.YEAR: (dt(1000, 1, 1), dt(6000, 1, 1)),
}


class TestCalendar:
    def test_windows_inside_one_span_share_their_periods(self, calendar):
        span = enumerate_periods(dt(2015, 1, 1), dt(2017, 1, 1), DAY)
        a = enumerate_periods(dt(2015, 3, 1, 12), dt(2015, 4, 1), DAY)
        b = enumerate_periods(dt(2015, 3, 15), dt(2015, 6, 1, 6), DAY)
        assert a == span[59:90] and b == span[73:152]
        assert all(p is q for p, q in zip(a, span[59:90]))
        assert all(p is q for p, q in zip(b, span[73:152]))
        assert a[14] is b[0]
        assert period_of(dt(2015, 3, 15, 9), DAY) is b[0]
        assert len(calendar[DAY][1]) == 731

    def test_a_window_outside_extends_it_by_the_periods_it_adds(
            self, calendar, built):
        g = Granularity.MONTH
        year = enumerate_periods(dt(2015, 1, 1), dt(2016, 1, 1), g)
        assert len(built) == 12
        wider = enumerate_periods(dt(2014, 7, 10), dt(2016, 2, 1, 1), g)
        assert len(built) == 12 + 6 + 2
        assert wider == reference(dt(2014, 7, 10), dt(2016, 2, 1, 1), g)
        assert all(p is q for p, q in zip(wider[6:18], year))
        bounds, periods = calendar[g]
        assert bounds == [p.start_date for p in periods] + [date(2016, 3, 1)]

    def test_published_lists_are_never_changed(self, calendar):
        enumerate_periods(dt(2015, 1, 1), dt(2016, 1, 1), DAY)
        bounds, periods = calendar[DAY]
        held = list(bounds), list(periods)
        enumerate_periods(dt(2014, 6, 1), dt(2016, 6, 1), DAY)
        enumerate_periods(dt(2017, 12, 1), dt(2018, 1, 1, 12), DAY)
        assert (bounds, periods) == held
        # 2014-06-01 through 2018-01-01.
        assert len(calendar[DAY][1]) == 214 + 365 + 366 + 365 + 1

    def test_a_day_outside_is_answered_without_extending_it(self, calendar,
                                                            built):
        g = Granularity.WEEK
        weeks = enumerate_periods(dt(2015, 1, 5), dt(2015, 3, 2), g)
        held, built[:] = calendar[g], []
        assert period_of(dt(2015, 2, 4, 23), g) is weeks[4]
        assert built == []
        far = period_of(dt(2030, 6, 5, 8), g)
        assert len(built) == 1
        assert far == reference(dt(2030, 6, 5, 8), dt(2030, 6, 5, 9), g)[0]
        assert calendar[g] is held

    @pytest.mark.parametrize("g", list(Granularity))
    def test_a_window_wider_than_the_capacity_is_built_for_the_call(
            self, calendar, g):
        wide = WIDER_THAN_THE_CAPACITY[g]
        assert len(reference(*wide, g)) > timeline._CAPACITY
        enumerate_periods(dt(2015, 1, 1), dt(2017, 1, 1), g)
        held = calendar[g]
        assert enumerate_periods(*wide, g) == reference(*wide, g)
        assert calendar[g] is held
        # Also on an empty calendar, which stays empty.
        with own_calendar() as empty:
            assert enumerate_periods(*wide, g) == reference(*wide, g)
            assert empty[g] == ([], [])
        assert len(calendar[g][1]) <= timeline._CAPACITY

    def test_the_calendar_never_passes_its_capacity(self, calendar):
        for year in range(1990, 2030, 3):
            enumerate_periods(dt(year, 1, 1), dt(year + 2, 1, 1), DAY)
            bounds, periods = calendar[DAY]
            assert len(periods) <= timeline._CAPACITY
            assert len(bounds) == len(periods) + 1

    @pytest.mark.parametrize("held", [
        None, (dt(2015, 1, 1), dt(2017, 1, 1)), (dt(1, 1, 1), dt(1, 3, 1)),
        "the month before"], ids=["empty", "2015-2016", "year-1", "adjacent"])
    @pytest.mark.parametrize("g", list(Granularity))
    def test_window_ending_on_the_last_day(self, calendar, built, g, held):
        if held == "the month before":
            held = ((dt(9998, 1, 1), dt(9999, 1, 1)) if g is Granularity.YEAR
                    else (dt(9999, 11, 1), dt(9999, 12, 1)))
        if held:
            enumerate_periods(*held, g)
        before, built[:] = calendar[g], []
        window = (dt(9999, 12, 1), dt(9999, 12, 31))
        if g is DAY:
            ps = enumerate_periods(*window, g)
        else:
            with pytest.raises(ValueError, match="ends after 9999-12-31"):
                enumerate_periods(*window, g)
            assert calendar[g] is before
        # Only the window's own periods are built, whatever the calendar
        # held: a far calendar is not stretched toward it.
        assert len(built) <= 30
        if g is DAY:
            assert ps == reference(*window, g)
            assert ps[-1].end == dt(9999, 12, 31)


# Far enough from both ends that a zone's offset and a 500-day window stay
# inside the calendar's range.
_any_instant = st.datetimes(min_value=datetime(1, 1, 2),
                            max_value=datetime(9997, 1, 1))
_near_instant = st.datetimes(min_value=datetime(1995, 1, 1),
                             max_value=datetime(2035, 1, 1))
_zones = st.sampled_from([None, UTC, timezone(timedelta(hours=5, minutes=30)),
                          timezone(timedelta(hours=-8))])


@st.composite
def _windows(draw, instants=_near_instant):
    start = draw(instants)
    end = start + draw(st.timedeltas(timedelta(0), timedelta(days=500)))
    zone = draw(_zones)
    return start.replace(tzinfo=zone), end.replace(tzinfo=zone)


class TestCalendarProperty:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.one_of(_windows(), _windows(_any_instant),
                              _near_instant), max_size=4),
           _windows(), _granularities)
    def test_answers_do_not_depend_on_earlier_calls(self, earlier, window, g):
        with own_calendar():
            want = enumerate_periods(*window, g)
            probe = period_of(window[0], g)
        assert want == reference(*window, g)
        with own_calendar() as cal:
            for call in earlier:
                if isinstance(call, tuple):
                    enumerate_periods(*call, g)
                else:
                    period_of(call, g)
            assert enumerate_periods(*window, g) == want
            assert period_of(window[0], g) == probe
            bounds, periods = cal[g]
        assert len(periods) <= timeline._CAPACITY
        assert bounds[:-1] == [p.start_date for p in periods]
        assert bounds[-1:] == [p.end_date for p in periods[-1:]]
