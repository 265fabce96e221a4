import pytest

import entity_pulse as ep
from entity_pulse.relations import (network_csv_rows, network_edge_rows,
                                    network_json_records)

import oracle
from helpers import (build_random_corpus, make_corpus, month, phi_row,
                     records_of, row)

JULY = month(2015, 7)


def monthly(rows, delta=2.0):
    return ep.build(make_corpus(rows), ep.Granularity.MONTH, delta)


def shared_corpus(n_x=100, n_y=1000, shared=90):
    """n_x texts mention X (shared of them also Y); n_y-shared mention Y only."""
    rows = []
    t = 0
    for i in range(n_x):
        mentions = [("X", 1.0), ("Y", 1.0)] if i < shared else [("X", 1.0)]
        rows.append(row(f"t{t}", f"u{t % 9}", "2015-07-05T10:00:00Z",
                        mentions, 1, -1))
        t += 1
    for _ in range(n_y - shared):
        rows.append(row(f"t{t}", f"u{t % 9}", "2015-07-05T10:00:00Z",
                        [("Y", 1.0)], 1, -1))
        t += 1
    return rows


class TestDirectConnectedness:
    def test_asymmetry(self):
        idx = monthly(shared_corpus())
        assert ep.direct_connectedness(idx, "X", "Y", JULY) == 90 / 100
        assert ep.direct_connectedness(idx, "Y", "X", JULY) == 90 / 1000

    def test_no_cooccurrence_is_zero(self):
        idx = monthly(shared_corpus(shared=0))
        assert ep.direct_connectedness(idx, "X", "Y", JULY) == 0.0

    def test_containment_is_one(self):
        idx = monthly(shared_corpus(n_x=5, shared=5))
        assert ep.direct_connectedness(idx, "X", "Y", JULY) == 1.0

    @pytest.mark.parametrize("other", ["D", "M", "E", "ghost"])
    def test_last_and_absent_co_entities_match_oracle(self, other):
        # X co-occurs with B, C and D, in id order, D last. M and E never
        # share a text with X; M's id falls between C's and D's, E's after
        # them all. "ghost" is unknown.
        rows = [row("t1", "u1", "2015-07-01T00:00:00Z",
                    [("X", 1.0), ("B", 1.0), ("C", 1.0)], 2, -1),
                row("t2", "u3", "2015-07-02T00:00:00Z", [("M", 1.0)], 1, -2),
                row("t3", "u2", "2015-07-03T00:00:00Z",
                    [("X", 1.0), ("D", 1.0)], 3, -1),
                row("t4", "u2", "2015-07-04T00:00:00Z", [("X", 1.0)], 1, -1),
                row("t5", "u3", "2015-07-05T00:00:00Z", [("E", 1.0)], 1, -2)]
        idx = monthly(rows)
        assert idx.entities == ["X", "B", "C", "M", "D", "E"]
        assert [e for e, _, _ in idx.posting_counts("X", JULY)[-1]] == \
            [1, 2, 4]
        got = ep.direct_connectedness(idx, "X", other, JULY)
        assert got == oracle.direct_connectedness(records_of(rows), "X",
                                                  other, JULY)
        assert got == (1 / 3 if other == "D" else 0.0)

    def test_null_without_mentions(self):
        idx = monthly(shared_corpus())
        assert ep.direct_connectedness(idx, "X", "Y", month(2014, 1)) is None
        assert ep.direct_connectedness(idx, "ghost", "Y", JULY) is None

    def test_self_pair_rejected(self):
        idx = monthly(shared_corpus())
        with pytest.raises(ValueError):
            ep.direct_connectedness(idx, "X", "X", JULY)

    def test_score_times_count_is_integer(self):
        _, corpus, _ = build_random_corpus(70, 400)
        idx = ep.build(corpus, ep.Granularity.MONTH, 2.0)
        for period in idx.periods():
            for entity in idx.entities:
                p = idx.posting(entity, period)
                if p is None:
                    continue
                for other in list(p.cooccur)[:5]:
                    score = ep.direct_connectedness(idx, entity, other, period)
                    assert score * p.text_count == pytest.approx(
                        p.cooccur[other][0], abs=1e-9)


def neighborhood_corpus():
    # N_e = {A, B, C}; N_e2 = {B, C, D} once e/e2 themselves are removed.
    return [
        row("t1", "u1", "2015-07-01T00:00:00Z", [("e", 1.0), ("A", 1.0)], 1, -1),
        row("t2", "u1", "2015-07-02T00:00:00Z", [("e", 1.0), ("B", 1.0)], 1, -1),
        row("t3", "u2", "2015-07-03T00:00:00Z", [("e", 1.0), ("C", 1.0)], 1, -1),
        row("t4", "u2", "2015-07-04T00:00:00Z", [("e2", 1.0), ("B", 1.0)], 1, -1),
        row("t5", "u3", "2015-07-05T00:00:00Z", [("e2", 1.0), ("C", 1.0)], 1, -1),
        row("t6", "u3", "2015-07-06T00:00:00Z", [("e2", 1.0), ("D", 1.0)], 1, -1),
    ]


class TestIndirectConnectedness:
    def test_two_thirds_overlap(self):
        idx = monthly(neighborhood_corpus())
        assert ep.indirect_connectedness(idx, "e", "e2", JULY) == 2 / 3

    def test_disjoint_neighborhoods(self):
        rows = [
            row("t1", "u1", "2015-07-01T00:00:00Z", [("e", 1.0), ("A", 1.0)], 1, -1),
            row("t2", "u1", "2015-07-02T00:00:00Z", [("e2", 1.0), ("B", 1.0)], 1, -1),
        ]
        idx = monthly(rows)
        assert ep.indirect_connectedness(idx, "e", "e2", JULY) == 0.0

    def test_subset_neighborhood_is_one(self):
        rows = [
            row("t1", "u1", "2015-07-01T00:00:00Z", [("e", 1.0), ("A", 1.0)], 1, -1),
            row("t2", "u1", "2015-07-02T00:00:00Z", [("e2", 1.0), ("A", 1.0)], 1, -1),
            row("t3", "u2", "2015-07-03T00:00:00Z", [("e2", 1.0), ("B", 1.0)], 1, -1),
        ]
        idx = monthly(rows)
        assert ep.indirect_connectedness(idx, "e", "e2", JULY) == 1.0

    def test_include_self_mode_uses_raw_sets(self):
        idx = monthly(neighborhood_corpus())
        # Raw sets: N_e = {e,A,B,C}, N_e2 = {e2,B,C,D}; overlap {B,C} over 4.
        got = ep.indirect_connectedness(idx, "e", "e2", JULY,
                                        include_self=True)
        assert got == 2 / 4

    def test_null_when_neighborhood_empty(self):
        rows = [row("t1", "u1", "2015-07-01T00:00:00Z", [("e", 1.0)], 1, -1),
                row("t2", "u1", "2015-07-02T00:00:00Z", [("e2", 1.0)], 1, -1)]
        idx = monthly(rows)
        # e's only neighbor is itself, removed by default.
        assert ep.indirect_connectedness(idx, "e", "e2", JULY) is None
        assert ep.indirect_connectedness(
            idx, "e", "e2", JULY, include_self=True) == 0.0

    def test_self_pair_rejected(self):
        idx = monthly(neighborhood_corpus())
        with pytest.raises(ValueError):
            ep.indirect_connectedness(idx, "e", "e", JULY)


class TestConnectednessToSet:
    def fixture(self):
        # direct(e->A) = 0.2 (1/5), direct(e->B) = 0.4 (2/5)
        rows = [
            row("t1", "u1", "2015-07-01T00:00:00Z", [("e", 1.0), ("A", 1.0)], 1, -1),
            row("t2", "u1", "2015-07-02T00:00:00Z", [("e", 1.0), ("B", 1.0)], 1, -1),
            row("t3", "u2", "2015-07-03T00:00:00Z", [("e", 1.0), ("B", 1.0)], 1, -1),
            row("t4", "u2", "2015-07-04T00:00:00Z", [("e", 1.0)], 1, -1),
            row("t5", "u3", "2015-07-05T00:00:00Z", [("e", 1.0)], 1, -1),
        ]
        return monthly(rows)

    def test_mean_of_scores(self):
        assert ep.connectedness_to_set(self.fixture(), "e", ["A", "B"],
                                       JULY) == pytest.approx(0.3, abs=1e-15)

    def test_singleton_equals_direct(self):
        idx = self.fixture()
        assert ep.connectedness_to_set(idx, "e", ["B"], JULY) == \
            ep.direct_connectedness(idx, "e", "B", JULY)

    def test_all_zero_scores(self):
        assert ep.connectedness_to_set(self.fixture(), "e",
                                       ["nope1", "nope2"], JULY) == 0.0

    def test_null_when_entity_silent(self):
        assert ep.connectedness_to_set(self.fixture(), "e", ["A"],
                                       month(2014, 1)) is None

    def test_validation(self):
        idx = self.fixture()
        with pytest.raises(ValueError):
            ep.connectedness_to_set(idx, "e", [], JULY)
        with pytest.raises(ValueError):
            ep.connectedness_to_set(idx, "e", ["A", "e"], JULY)


def scored_corpus():
    """Five co-entities with distinct direct scores from X."""
    rows = []
    t = 0
    companions = [("C1", 5), ("C2", 4), ("C3", 3), ("C4", 2), ("C5", 1)]
    for name, count in companions:
        for _ in range(count):
            rows.append(row(f"t{t}", f"u{t % 4}", "2015-07-05T10:00:00Z",
                            [("X", 1.0), (name, 1.0)], 1, -1))
            t += 1
    for _ in range(5):
        rows.append(row(f"t{t}", f"u{t % 4}", "2015-07-05T10:00:00Z",
                        [("X", 1.0)], 1, -1))
        t += 1
    return rows


class TestKNetwork:
    def test_top3_by_score(self):
        net = ep.k_network(monthly(scored_corpus()), "X", JULY, 3)
        assert [name for name, _, _ in net.entries] == ["C1", "C2", "C3"]
        assert [cnt for _, _, cnt in net.entries] == [5, 4, 3]
        assert net.entries[0][1] == 0.25  # 5/20

    def test_k1(self):
        net = ep.k_network(monthly(scored_corpus()), "X", JULY, 1)
        assert [name for name, _, _ in net.entries] == ["C1"]

    def test_silent_entity_empty(self):
        net = ep.k_network(monthly(scored_corpus()), "X", month(2014, 1), 3)
        assert net.entries == ()

    def test_prefix_property(self):
        _, corpus, _ = build_random_corpus(71, 500)
        idx = ep.build(corpus, ep.Granularity.MONTH, 2.0)
        for period in idx.periods():
            for entity in idx.entities[:15]:
                smaller = ep.k_network(idx, entity, period, 3).entries
                larger = ep.k_network(idx, entity, period, 4).entries
                assert larger[:len(smaller)] == smaller

    def test_lexicographic_tiebreak(self):
        rows = [
            row("t1", "u1", "2015-07-01T00:00:00Z",
                [("X", 1.0), ("zeta", 1.0), ("alpha", 1.0)], 1, -1),
        ]
        net = ep.k_network(monthly(rows), "X", JULY, 2)
        assert [name for name, _, _ in net.entries] == ["alpha", "zeta"]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ep.k_network(monthly(scored_corpus()), "X", JULY, 0)


def signed_corpus():
    """Pair attitudes: X-P mean +2.5, X-Q mean +1.0, X-N mean -3.0."""
    rows = []
    t = 0
    for phi in (2, 3):
        rows.append(phi_row(f"t{t}", "u1", "2015-07-01T00:00:00Z",
                            [("X", 1.0), ("P", 1.0)], phi))
        t += 1
    for phi in (1, 1):
        rows.append(phi_row(f"t{t}", "u2", "2015-07-02T00:00:00Z",
                            [("X", 1.0), ("Q", 1.0)], phi))
        t += 1
    for phi in (-3, -3):
        rows.append(phi_row(f"t{t}", "u3", "2015-07-03T00:00:00Z",
                            [("X", 1.0), ("N", 1.0)], phi))
        t += 1
    return rows


class TestSignedKNetwork:
    def test_positive_threshold(self):
        net = ep.signed_k_network(monthly(signed_corpus()), "X", JULY, 5,
                                  "positive", 2.0)
        assert [name for name, _, _ in net.entries] == ["P"]
        assert net.variant == "positive"
        assert net.delta == 2.0

    def test_negative_threshold(self):
        net = ep.signed_k_network(monthly(signed_corpus()), "X", JULY, 5,
                                  "negative", 2.0)
        assert [name for name, _, _ in net.entries] == ["N"]

    def test_delta_zero_takes_nonnegative_means(self):
        net = ep.signed_k_network(monthly(signed_corpus()), "X", JULY, 5,
                                  "positive", 0.0)
        assert {name for name, _, _ in net.entries} == {"P", "Q"}

    def test_delta_zero_partition_rule(self):
        # Pair means: +1 (pos), -1 (neg), and exactly 0 (positive only).
        rows = [
            phi_row("t1", "u1", "2015-07-01T00:00:00Z", [("X", 1.0), ("A", 1.0)], 1),
            phi_row("t2", "u1", "2015-07-02T00:00:00Z", [("X", 1.0), ("B", 1.0)], -1),
            phi_row("t3", "u2", "2015-07-03T00:00:00Z", [("X", 1.0), ("Z", 1.0)], 2),
            phi_row("t4", "u2", "2015-07-04T00:00:00Z", [("X", 1.0), ("Z", 1.0)], -2),
        ]
        idx = monthly(rows)
        pos = ep.signed_k_network(idx, "X", JULY, 9, "positive", 0.0)
        neg = ep.signed_k_network(idx, "X", JULY, 9, "negative", 0.0)
        pos_names = {name for name, _, _ in pos.entries}
        neg_names = {name for name, _, _ in neg.entries}
        assert pos_names == {"A", "Z"}
        assert neg_names == {"B"}
        assert not pos_names & neg_names

    def test_min_support_filters(self):
        net = ep.signed_k_network(monthly(signed_corpus()), "X", JULY, 5,
                                  "positive", 0.0, min_support=3)
        assert net.entries == ()

    def test_validation(self):
        idx = monthly(signed_corpus())
        with pytest.raises(ValueError):
            ep.signed_k_network(idx, "X", JULY, 5, "sideways", 2.0)
        with pytest.raises(ValueError):
            ep.signed_k_network(idx, "X", JULY, 5, "positive", 5.0)
        with pytest.raises(ValueError):
            ep.signed_k_network(idx, "X", JULY, 5, "positive", 2.0,
                                min_support=0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [80, 81])
    def test_all_relation_ops_match_full_scan(self, seed):
        records, corpus, _ = build_random_corpus(seed, 400, max_entities=10)
        idx = ep.build(corpus, ep.Granularity.MONTH, 2.0)
        periods = idx.periods()
        entities = idx.entities
        for period in periods:
            for entity in entities:
                want = oracle.k_network(records, entity, period, 4)
                got = ep.k_network(idx, entity, period, 4).entries
                assert list(got) == want
                for sign, delta in (("positive", 2.0), ("negative", 1.5)):
                    want = oracle.signed_k_network(records, entity, period, 4,
                                                   sign, delta, 1)
                    got = ep.signed_k_network(idx, entity, period, 4, sign,
                                              delta, 1).entries
                    assert list(got) == want
                for other in entities[:4]:
                    if other == entity:
                        continue
                    assert ep.direct_connectedness(idx, entity, other, period) \
                        == oracle.direct_connectedness(records, entity, other,
                                                       period)
                    for own in (False, True):
                        assert ep.indirect_connectedness(
                            idx, entity, other, period, include_self=own) \
                            == oracle.indirect_connectedness(
                                records, entity, other, period, own)

    def test_network_subset_argmax(self):
        records, corpus, _ = build_random_corpus(82, 300, max_entities=7)
        idx = ep.build(corpus, ep.Granularity.MONTH, 2.0)
        for period in idx.periods():
            for entity in idx.entities:
                for k in (1, 2, 3):
                    got = ep.k_network(idx, entity, period, k).entries
                    best = oracle.best_network_mean(records, entity, period, k)
                    if not got:
                        assert best is None
                        continue
                    got_mean = sum(s for _, s, _ in got) / len(got)
                    assert got_mean == pytest.approx(best, abs=1e-12)


class TestOutputFormats:
    def test_csv_rows(self):
        net = ep.k_network(monthly(scored_corpus()), "X", JULY, 2)
        assert network_csv_rows(net) == ["1,C1,0.25,5", "2,C2,0.2,4"]

    def test_edge_rows(self):
        net = ep.k_network(monthly(scored_corpus()), "X", JULY, 1)
        assert network_edge_rows(net) == ["X,C1,0.25,5"]

    def test_json_records(self):
        net = ep.signed_k_network(monthly(signed_corpus()), "X", JULY, 5,
                                  "negative", 2.0)
        rec = network_json_records(net)[0]
        assert rec == {"rank": 1, "entity": "N", "score": 1 / 3,
                       "support": 2, "variant": "negative", "source": "X",
                       "period_start": "2015-07-01",
                       "period_end": "2015-08-01"}
