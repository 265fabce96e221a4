import random
from datetime import datetime, timezone

import pytest

import entity_pulse as ep
from entity_pulse.measures import (ranked_periods_csv_rows, series_csv_rows,
                                   series_json_records)

import oracle
from helpers import build_random_corpus, make_corpus, month, phi_row, row, window

JULY = "2015-07-{:02d}T10:00:00Z"
UTC = timezone.utc


def monthly(corpus, delta=2.0):
    return ep.build(corpus, ep.Granularity.MONTH, delta)


def july_rows(specs):
    """specs: (text_id, user, mentions, phi) in July 2015, one per day."""
    return [phi_row(tid, user, JULY.format(3 + i % 25), mentions, phi)
            for i, (tid, user, mentions, phi) in enumerate(specs)]


class TestPopularityC:
    def test_four_of_ten(self):
        specs = [(f"t{i}", f"u{i}", [("e", 1.0)] if i < 4 else [], 0)
                 for i in range(10)]
        idx = monthly(make_corpus(july_rows(specs)))
        point = ep.popularity_c(idx, "e", month(2015, 7))
        assert point.value == 0.4
        assert point.support == 4

    def test_absent_entity_is_zero(self):
        specs = [("t1", "u1", [("other", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_c(idx, "e", month(2015, 7)).value == 0.0

    def test_empty_period_is_null(self):
        idx = monthly(make_corpus([]))
        point = ep.popularity_c(idx, "e", month(2015, 7))
        assert point.value is None


class TestPopularityU:
    def test_two_of_five_users(self):
        specs = [("t1", "u1", [("e", 1.0)], 0), ("t2", "u2", [("e", 1.0)], 0),
                 ("t3", "u3", [], 0), ("t4", "u4", [], 0), ("t5", "u5", [], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_u(idx, "e", month(2015, 7)).value == 0.4

    def test_prolific_single_user_counts_once(self):
        specs = [(f"t{i}", "u1", [("e", 1.0)], 0) for i in range(100)]
        specs += [(f"x{i}", f"u{i + 2}", [], 0) for i in range(4)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_u(idx, "e", month(2015, 7)).value == 0.2

    def test_absent_entity(self):
        specs = [("t1", "u1", [("other", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_u(idx, "e", month(2015, 7)).value == 0.0


class TestPopularityCU:
    def test_product(self):
        # 4 of 10 texts, 2 of 4 users -> 0.4 * 0.5 = 0.2
        specs = [("t0", "u1", [("e", 1.0)], 0), ("t1", "u1", [("e", 1.0)], 0),
                 ("t2", "u2", [("e", 1.0)], 0), ("t3", "u2", [("e", 1.0)], 0),
                 ("t4", "u3", [], 0), ("t5", "u3", [], 0),
                 ("t6", "u4", [], 0), ("t7", "u4", [], 0),
                 ("t8", "u3", [], 0), ("t9", "u4", [], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_cu(idx, "e", month(2015, 7)).value == 0.2

    def test_zero_factor_absorbs(self):
        specs = [("t1", "u1", [("other", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_cu(idx, "e", month(2015, 7)).value == 0.0

    def test_saturated_is_one(self):
        specs = [("t1", "u1", [("e", 1.0)], 0), ("t2", "u2", [("e", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.popularity_cu(idx, "e", month(2015, 7)).value == 1.0

    def test_null_when_period_empty(self):
        idx = monthly(make_corpus([]))
        assert ep.popularity_cu(idx, "e", month(2015, 7)).value is None


class TestAttitudeSentimentality:
    def test_attitude_average(self):
        specs = [("t1", "u1", [("e", 1.0)], -1), ("t2", "u2", [("e", 1.0)], 3)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.attitude(idx, "e", month(2015, 7)).value == 1.0

    def test_attitude_neutral(self):
        specs = [(f"t{i}", "u", [("e", 1.0)], 0) for i in range(3)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.attitude(idx, "e", month(2015, 7)).value == 0.0

    def test_attitude_null_without_mentions(self):
        specs = [("t1", "u1", [], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        assert ep.attitude(idx, "e", month(2015, 7)).value is None

    def test_sentimentality_average(self):
        # psi values 5 and 0: scores (4,-3) and (1,-1).
        rows = [row("t1", "u1", JULY.format(3), [("e", 1.0)], 4, -3),
                row("t2", "u2", JULY.format(4), [("e", 1.0)], 1, -1)]
        idx = monthly(make_corpus(rows))
        assert ep.sentimentality(idx, "e", month(2015, 7)).value == 2.5

    def test_sentimentality_null_without_mentions(self):
        idx = monthly(make_corpus([]))
        assert ep.sentimentality(idx, "e", month(2015, 7)).value is None


class TestControversiality:
    def test_balanced_strong_counts(self):
        phis = [3, 2, 2, -2, -3, -2, 0, 0, 1, -1]  # 3 pos, 3 neg at delta 2
        specs = [(f"t{i}", f"u{i}", [("e", 1.0)], phi)
                 for i, phi in enumerate(phis)]
        idx = monthly(make_corpus(july_rows(specs)), delta=2.0)
        point = ep.controversiality(idx, "e", month(2015, 7))
        assert point.value == pytest.approx(0.6, abs=1e-15)

    def test_consensus_is_zero(self):
        phis = [3, 2, 4, 2, 3]
        specs = [(f"t{i}", f"u{i}", [("e", 1.0)], phi)
                 for i, phi in enumerate(phis)]
        idx = monthly(make_corpus(july_rows(specs)), delta=2.0)
        assert ep.controversiality(idx, "e", month(2015, 7)).value == 0.0

    def test_maximal_controversy(self):
        phis = [3, 3, -3, -3]
        specs = [(f"t{i}", f"u{i}", [("e", 1.0)], phi)
                 for i, phi in enumerate(phis)]
        idx = monthly(make_corpus(july_rows(specs)), delta=2.0)
        assert ep.controversiality(idx, "e", month(2015, 7)).value == 1.0

    def test_null_without_mentions(self):
        idx = monthly(make_corpus([]))
        assert ep.controversiality(idx, "e", month(2015, 7)).value is None


class TestSeries:
    def test_twelve_points(self):
        specs = [("t1", "u1", [("e", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        points = ep.series(idx, "e", window(2015, 2016), "popularity_c")
        assert len(points) == 12
        assert [p.period.start.month for p in points] == list(range(1, 13))

    def test_window_before_corpus_all_null(self):
        specs = [("t1", "u1", [("e", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        points = ep.series(idx, "e", window(2013, 2014), "attitude")
        assert all(p.value is None for p in points)

    def test_spike_month_is_argmax(self):
        doc = {
            "seed": 99, "window": {"from": "2015-01-01", "to": "2016-01-01"},
            "granularity": "month", "users": 12,
            "entities": [{"id": "e", "rate": 4}, {"id": "bg", "rate": 6}],
            "events": [{"kind": "popularity-spike", "entity": "e",
                        "period": "2015-07", "factor": 10}],
        }
        rows, _ = ep.generate(ep.scenario_from_json(doc))
        idx = monthly(make_corpus(rows))
        points = ep.series(idx, "e", window(2015, 2016), "popularity_cu")
        best = max(points, key=lambda p: p.value)
        assert best.period == month(2015, 7)

    def test_unknown_measure(self):
        idx = monthly(make_corpus([]))
        with pytest.raises(ValueError, match="unknown measure"):
            ep.series(idx, "e", window(2015, 2016), "buzz")


class TestTopK:
    def fixture(self):
        # popularity_c per month: Jan 0.1 (1/10), Feb 0.5 (5/10), Mar 0.3 (3/10)
        rows = []
        counts = {1: 1, 2: 5, 3: 3}
        t = 0
        for mon, k in counts.items():
            for i in range(10):
                mentions = [("e", 1.0)] if i < k else []
                rows.append(phi_row(f"t{t}", f"u{i}",
                                    f"2015-{mon:02d}-10T00:00:00Z",
                                    mentions, 0))
                t += 1
        return monthly(make_corpus(rows))

    def test_top2_high(self):
        ranked = ep.top_k_periods(self.fixture(), "e", window(2015, 2016),
                                  "popularity_c", 2, "high")
        assert [p.start.month for p, _ in ranked.items] == [2, 3]
        assert [v for _, v in ranked.items] == [0.5, 0.3]

    def test_low_direction(self):
        ranked = ep.top_k_periods(self.fixture(), "e", window(2015, 2016),
                                  "popularity_c", 2, "low")
        assert [p.start.month for p, _ in ranked.items] == [1, 3]

    def test_k_larger_than_defined(self):
        ranked = ep.top_k_periods(self.fixture(), "e", window(2015, 2016),
                                  "popularity_c", 50, "high")
        assert len(ranked.items) == 3  # only defined periods rank

    def test_ties_chronological(self):
        rows = [phi_row(f"t{m}", "u1", f"2015-{m:02d}-10T00:00:00Z",
                        [("e", 1.0)], 0) for m in (3, 1, 7)]
        idx = monthly(make_corpus(rows))
        ranked = ep.top_k_periods(idx, "e", window(2015, 2016),
                                  "popularity_c", 2, "high")
        assert [p.start.month for p, _ in ranked.items] == [1, 3]

    def test_validation(self):
        idx = self.fixture()
        with pytest.raises(ValueError):
            ep.top_k_periods(idx, "e", window(2015, 2016), "attitude", 0)
        with pytest.raises(ValueError):
            ep.top_k_periods(idx, "e", window(2015, 2016), "attitude", 1,
                             "sideways")


class TestProperties:
    @pytest.mark.parametrize("seed", range(3))
    def test_ranges_and_null_policy(self, seed):
        records, corpus, _ = build_random_corpus(seed + 40, 500)
        delta = random.Random(seed).choice([0.0, 1.0, 2.0, 3.0])
        idx = monthly(corpus, delta=delta)
        periods = ep.enumerate_periods(*window(2015, 2016),
                                       ep.Granularity.MONTH)
        entities = list(idx.entities)[:30] + ["never-mentioned"]
        for period in periods:
            texts_total = len(oracle.texts_in(records, period))
            for entity in entities:
                for name in ep.MEASURES:
                    value = ep.MEASURES[name](idx, entity, period).value
                    if name.startswith("popularity"):
                        assert (value is None) == (texts_total == 0)
                        if value is not None:
                            assert 0.0 <= value <= 1.0
                    else:
                        mentions = len(oracle.mentioning(records, entity,
                                                         period))
                        assert (value is None) == (mentions == 0)
                        if value is None:
                            continue
                        if name == "attitude":
                            assert -4.0 <= value <= 4.0
                        elif name == "sentimentality":
                            assert 0.0 <= value <= 8.0
                        else:
                            assert 0.0 <= value <= 1.0

    def test_cu_bounded_by_factors(self):
        records, corpus, _ = build_random_corpus(50, 400)
        idx = monthly(corpus)
        for period in idx.periods():
            for entity in idx.entities:
                cu = ep.popularity_cu(idx, entity, period).value
                if cu is None:
                    continue
                pc = ep.popularity_c(idx, entity, period).value
                pu = ep.popularity_u(idx, entity, period).value
                assert cu <= min(pc, pu) + 1e-15

    def test_duplicating_texts_leaves_measures_unchanged(self):
        base = [("t1", "u1", [("e", 1.0)], 3), ("t2", "u2", [("e", 1.0)], -2),
                ("t3", "u2", [("f", 1.0)], 0), ("t4", "u3", [], 1)]
        rows = july_rows(base)
        doubled = rows + [phi_row(f"d{i}", spec[1], JULY.format(20), spec[2],
                                  spec[3]) for i, spec in enumerate(base)]
        idx1 = monthly(make_corpus(rows))
        idx2 = monthly(make_corpus(doubled))
        for name in ep.MEASURES:
            a = ep.MEASURES[name](idx1, "e", month(2015, 7)).value
            b = ep.MEASURES[name](idx2, "e", month(2015, 7)).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_controversiality_zero_when_one_sided(self):
        records, corpus, _ = build_random_corpus(51, 500)
        idx = monthly(corpus, delta=2.0)
        saw_case = False
        for period in idx.periods():
            for entity in idx.entities:
                p = idx.posting(entity, period)
                if p is None:
                    continue
                if p.strong_pos_count * p.strong_neg_count == 0:
                    saw_case = True
                    assert ep.controversiality(idx, entity, period).value == 0.0
        assert saw_case


class TestExhaustiveTopK:
    @pytest.mark.parametrize("direction", ["high", "low"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_subset_argmax(self, k, direction):
        records, corpus, _ = build_random_corpus(60, 200, max_entities=5)
        idx = monthly(corpus)
        start, end = window(2015, 2016)
        half = (month(2015, 8).start)  # 7 periods: Jan..Jul
        periods = ep.enumerate_periods(start, half, ep.Granularity.MONTH)
        for entity in idx.entities:
            for name in ("popularity_cu", "attitude", "controversiality"):
                ranked = ep.top_k_periods(idx, entity, (start, half), name,
                                          k, direction)
                values = [(p, ep.MEASURES[name](idx, entity, p).value)
                          for p in periods]
                expected = oracle.top_k(values, k, direction)
                assert [(p, v) for p, v in ranked.items] == expected
                got_sum = sum(v for _, v in ranked.items)
                assert got_sum == pytest.approx(
                    oracle.best_subset_sum(values, k, direction), abs=1e-12)


class TestOutputFormats:
    def test_series_csv_shape(self):
        specs = [("t1", "u1", [("e", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        points = ep.series(idx, "e", window(2015, 2016), "popularity_c")
        rows = series_csv_rows(points, "popularity_c")
        assert len(rows) == 12
        assert rows[6] == "e,2015-07-01,2015-08-01,popularity_c,1.0,1"
        assert rows[0] == "e,2015-01-01,2015-02-01,popularity_c,,0"

    def test_series_json_nulls(self):
        specs = [("t1", "u1", [("e", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        points = ep.series(idx, "e", window(2015, 2016), "attitude")
        recs = series_json_records(points, "attitude")
        assert recs[0]["value"] is None
        assert recs[6]["value"] == 0.0
        assert recs[6]["support"] == 1

    def test_topk_csv_rank_column(self):
        specs = [("t1", "u1", [("e", 1.0)], 0)]
        idx = monthly(make_corpus(july_rows(specs)))
        ranked = ep.top_k_periods(idx, "e", window(2015, 2016),
                                  "popularity_c", 2, "high")
        rows = ranked_periods_csv_rows(ranked, idx)
        assert rows[0].startswith("1,e,2015-07-01,")


class TestOracleEquivalence:
    """Series, top-k and the single-period functions against a full scan,
    over a window that starts before and ends after the data."""

    WINDOW = (datetime(2014, 11, 20, tzinfo=UTC),
              datetime(2016, 2, 10, tzinfo=UTC))

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("granularity", list(ep.Granularity))
    def test_series_topk_and_points_match_the_oracle(self, granularity,
                                                     delta):
        seed = 70 + 4 * list(ep.Granularity).index(granularity) + int(delta)
        records, corpus, _ = build_random_corpus(seed, 150, max_entities=6)
        idx = ep.build(corpus, granularity, delta)
        periods = ep.enumerate_periods(*self.WINDOW, granularity)
        # Each period's texts; the oracle filters by period itself, so
        # handing it only these gives the same answers, faster.
        buckets = [oracle.texts_in(records, p) for p in periods]
        for entity in [*idx.entities, "never-mentioned"]:
            for name in ep.MEASURES:
                points = ep.series(idx, entity, self.WINDOW, name)
                assert [p.period for p in points] == periods
                want = [oracle.measure_value(b, entity, p, name, delta)
                        for p, b in zip(periods, buckets)]
                assert [p.value for p in points] == want
                assert [p.support for p in points] == [
                    len(oracle.mentioning(b, entity, p))
                    for p, b in zip(periods, buckets)]
                assert points == [ep.MEASURES[name](idx, entity, p)
                                  for p in periods]
                values = list(zip(periods, want))
                for direction in ("high", "low"):
                    for k in (1, 3, len(periods)):
                        ranked = ep.top_k_periods(idx, entity, self.WINDOW,
                                                  name, k, direction)
                        assert list(ranked.items) == \
                            oracle.top_k(values, k, direction)


class TestTieOrder:
    def test_equal_values_rank_earliest_first(self):
        # Attitude 0.0 in Jan, Mar, May and Nov, 2.0 in Jul. At delta 3 no
        # text is strong, so controversiality is 0.0 in all five months.
        rows = [phi_row(f"t{m}", f"u{m}", f"2015-{m:02d}-10T00:00:00Z",
                        [("e", 1.0)], 2 if m == 7 else 0)
                for m in (11, 3, 7, 1, 5)]
        idx = monthly(make_corpus(rows), delta=3.0)
        span = window(2015, 2016)
        want = {("attitude", "high"): [7, 1, 3, 5, 11],
                ("attitude", "low"): [1, 3, 5, 11, 7],
                ("controversiality", "high"): [1, 3, 5, 7, 11],
                ("controversiality", "low"): [1, 3, 5, 7, 11]}
        for (name, direction), months in want.items():
            values = [(p.period, p.value)
                      for p in ep.series(idx, "e", span, name)]
            for k in (1, 3, 5, 12):
                ranked = ep.top_k_periods(idx, "e", span, name, k, direction)
                assert [p.start.month for p, _ in ranked.items] == months[:k]
                assert list(ranked.items) == oracle.top_k(values, k,
                                                          direction)
