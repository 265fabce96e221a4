from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entity_pulse.timeline import (Granularity, Period, enumerate_periods,
                                   parse_period_token, parse_window,
                                   period_of)

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
