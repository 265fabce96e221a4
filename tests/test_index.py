import hashlib
import os
import random
import struct
import tracemalloc
import zlib
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entity_pulse as ep
from entity_pulse import measures, relations
from entity_pulse.index import IndexFormatError, build_streaming

import oracle
from helpers import (build_random_corpus, epx_section, make_corpus, month,
                     phi_row, records_of, reseal_epx, row, window)


def build(corpus, delta=2.0, **kwargs):
    return ep.build(corpus, ep.Granularity.MONTH, delta, **kwargs)


class TestBuildBasics:
    def test_single_text_two_entities(self):
        corpus = make_corpus([
            row("t1", "u1", "2015-07-05T10:00:00Z", [("A", 1.0), ("B", 0.5)],
                3, -1),
        ])
        idx = build(corpus)
        a = idx.posting("A", month(2015, 7))
        b = idx.posting("B", month(2015, 7))
        assert a.text_count == b.text_count == 1
        assert a.cooccur == {"B": (1, 2)}
        assert b.cooccur == {"A": (1, 2)}
        assert a.neighbor_entities == {"A", "B"}

    def test_distinct_user_semantics(self):
        corpus = make_corpus([
            row("t1", "u1", "2015-07-05T10:00:00Z", [("A", 1.0)], 1, -1),
            row("t2", "u1", "2015-07-06T10:00:00Z", [("A", 1.0)], 1, -1),
        ])
        p = build(corpus).posting("A", month(2015, 7))
        assert (p.text_count, p.user_count) == (2, 1)

    def test_posting_absent(self):
        corpus = make_corpus([
            row("t1", "u1", "2015-07-05T10:00:00Z", [("A", 1.0)], 1, -1)])
        idx = build(corpus)
        assert idx.posting("nope", month(2015, 7)) is None
        assert idx.posting("A", month(2014, 7)) is None
        assert idx.slice_counts(month(2014, 7)) is None

    def test_empty_corpus(self):
        idx = build(make_corpus([]))
        assert idx.periods() == []
        assert idx.posting_count() == 0

    def test_strong_counts_at_delta(self):
        rows = [phi_row(f"t{i}", "u", "2015-07-05T10:00:00Z", [("A", 1.0)], phi)
                for i, phi in enumerate([3, 2, 1, 0, -1, -2, -4])]
        p = build(make_corpus(rows), delta=2.0).posting("A", month(2015, 7))
        assert (p.strong_pos_count, p.strong_neg_count) == (2, 2)

    def test_delta_zero_keeps_strong_sets_disjoint(self):
        rows = [phi_row(f"t{i}", "u", "2015-07-05T10:00:00Z", [("A", 1.0)], phi)
                for i, phi in enumerate([0, 0, 1, -1])]
        p = build(make_corpus(rows), delta=0.0).posting("A", month(2015, 7))
        # Exactly-neutral texts count as positive only.
        assert (p.strong_pos_count, p.strong_neg_count) == (3, 1)
        assert p.strong_pos_count + p.strong_neg_count <= p.text_count

    def test_delta_validation(self):
        corpus = make_corpus([])
        with pytest.raises(ValueError):
            build(corpus, delta=-0.1)
        with pytest.raises(ValueError):
            build(corpus, delta=4.5)

    def test_granularity_mismatch_rejected(self):
        corpus = make_corpus([
            row("t1", "u1", "2015-07-05T10:00:00Z", [("A", 1.0)], 1, -1)])
        idx = build(corpus)
        week = ep.period_of(month(2015, 7).start, ep.Granularity.WEEK)
        with pytest.raises(ValueError, match="granularity"):
            idx.posting("A", week)


def assert_matches_oracle(idx, records, delta, periods):
    entities = {m.entity_id for r in records for m in r.mentions}
    for period in periods:
        want_slice = oracle.slice_counts(records, period)
        got_slice = idx.slice_counts(period)
        if want_slice[0] == 0:
            assert got_slice is None
            continue
        assert got_slice == want_slice
        for entity in entities:
            want = oracle.posting_fields(records, entity, period, delta)
            got = idx.posting(entity, period)
            if want is None:
                assert got is None
                continue
            assert got.text_count == want["text_count"]
            assert got.user_count == want["user_count"]
            assert got.attitude_sum == want["attitude_sum"]
            assert got.sentimentality_sum == want["sentimentality_sum"]
            assert got.strong_pos_count == want["strong_pos_count"]
            assert got.strong_neg_count == want["strong_neg_count"]
            assert got.cooccur == want["cooccur"]
            assert got.neighbor_entities == want["neighbor_entities"]
            assert got.text_count <= got_slice[0]


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpora_match_full_scan(self, seed):
        records, corpus, _ = build_random_corpus(seed, 600, max_entities=12)
        delta = random.Random(seed).choice([0.0, 0.5, 1.0, 2.0, 3.5])
        idx = build(corpus, delta=delta)
        periods = ep.enumerate_periods(*window(2015, 2016),
                                       ep.Granularity.MONTH)
        assert_matches_oracle(idx, records, delta, periods)

    def test_weekly_granularity_matches_oracle(self):
        records, corpus, _ = build_random_corpus(11, 250, max_entities=6)
        idx = ep.build(corpus, ep.Granularity.WEEK, 1.0)
        periods = idx.periods()
        assert periods  # non-empty corpus
        assert_matches_oracle(idx, records, 1.0, periods)

    def test_build_deterministic(self):
        _, corpus, _ = build_random_corpus(3, 400)
        a = build(corpus)
        b = build(corpus)
        assert a.dump() == b.dump()


class TestDeltaMonotonicity:
    def test_raising_delta_never_raises_strong_counts(self):
        records, corpus, _ = build_random_corpus(9, 300, max_entities=8)
        deltas = [0.0, 1.0, 2.0, 3.0, 4.0]
        indexes = [build(corpus, delta=d) for d in deltas]
        for lo, hi in zip(indexes, indexes[1:]):
            for period in lo.periods():
                for entity in lo.entities:
                    a = lo.posting(entity, period)
                    b = hi.posting(entity, period)
                    if a is None:
                        assert b is None
                        continue
                    assert b.strong_pos_count <= a.strong_pos_count
                    assert b.strong_neg_count <= a.strong_neg_count


class TestInvariants:
    def test_posting_invariants_hold(self):
        records, corpus, _ = build_random_corpus(13, 700)
        idx = build(corpus, delta=1.5)
        for period in idx.periods():
            slice_counts = idx.slice_counts(period)
            per_entity = {}
            for entity in idx.entities:
                p = idx.posting(entity, period)
                if p is not None:
                    per_entity[entity] = p
            for entity, p in per_entity.items():
                assert 0 <= p.user_count <= p.text_count
                assert p.strong_pos_count + p.strong_neg_count <= p.text_count
                assert -4 * p.text_count <= p.attitude_sum <= 4 * p.text_count
                assert 0 <= p.sentimentality_sum <= 8 * p.text_count
                assert p.text_count <= slice_counts[0]
                for other, (cnt, _) in p.cooccur.items():
                    assert cnt <= min(p.text_count,
                                      per_entity[other].text_count)


def user_rows(*texts):
    """Rows of July 2015, one per ``(user, entities)``, an hour apart."""
    return [row(f"t{i}", user, f"2015-07-05T{i:02d}:00:00Z",
                [(e, 1.0) for e in entities], 3, -1)
            for i, (user, entities) in enumerate(texts)]


def assert_users_match_oracle(rows):
    """Every posting and slice, at day and month granularity, matches the
    full scan; returns the month index."""
    records, corpus = records_of(rows), make_corpus(rows)
    for g in (ep.Granularity.DAY, ep.Granularity.MONTH):
        idx = ep.build(corpus, g, 2.0)
        assert_matches_oracle(idx, records, 2.0, idx.periods())
    return idx


class TestSmallGroups:
    """A posting holds its first user as an id and takes a set only at its
    second distinct user; one without co-entities shares one empty map."""

    def test_one_user_many_texts_counts_one(self):
        idx = assert_users_match_oracle(user_rows(*[("u1", "A")] * 6))
        p = idx.posting("A", month(2015, 7))
        assert (p.text_count, p.user_count) == (6, 1)

    def test_second_user_after_repeats_counts_two(self):
        rows = user_rows(*[("u1", "A")] * 4, ("u2", "A"), ("u2", "A"))
        idx = assert_users_match_oracle(rows)
        p = idx.posting("A", month(2015, 7))
        assert (p.text_count, p.user_count) == (6, 2)

    def test_entities_of_one_text_promote_on_their_own(self):
        rows = user_rows(("u1", "AB"), ("u2", "A"), ("u1", "B"),
                         ("u1", "AB"), ("u3", "C"))
        idx = assert_users_match_oracle(rows)
        counts = {e: idx.posting(e, month(2015, 7)).user_count for e in "ABC"}
        assert counts == {"A": 2, "B": 1, "C": 1}
        assert idx.slice_counts(month(2015, 7)) == (5, 3)

    def test_promoted_count_is_every_distinct_user(self):
        # The first user never comes back after the group's second one.
        users = ["first"] + [f"u{i % 400}" for i in range(1000)]
        rows = [row(f"t{i}", u, "2015-07-05T10:00:00Z", [("A", 1.0)], 1, -1)
                for i, u in enumerate(users)]
        idx = assert_users_match_oracle(rows)
        p = idx.posting("A", month(2015, 7))
        assert (p.text_count, p.user_count) == (1001, 401)
        assert idx.slice_counts(month(2015, 7)) == (1001, 401)

    def test_postings_without_co_entities_share_a_read_only_map(
            self, tmp_path):
        rows = user_rows(("u1", "A"), ("u2", "B"), ("u1", "CD"))
        idx = build(make_corpus(rows))
        path = tmp_path / "idx.epx"
        ep.save(idx, path)
        with ep.load(path) as loaded:
            maps = [ix.posting_counts(e, month(2015, 7))[-1]
                    for ix in (idx, loaded) for e in "AB"]
            assert all(m is maps[0] for m in maps)
            assert len(maps[0]) == 0
            with pytest.raises(TypeError):
                maps[0]["C"] = (1, 2)
            assert loaded.posting("C", month(2015, 7)).cooccur == \
                {"D": (1, 2)}
            assert loaded.dump() == idx.dump()

    def test_build_holds_little_per_single_user_posting(self, tmp_path):
        # A year of days, 20 entities at one text a day among 2000 users:
        # 7300 postings, 90% of them with one user and 81% without a
        # co-entity. Peak per posting measured with Python 3.11: ~510 B
        # here, ~760 B with a set and a dict per posting.
        doc = {"seed": 11, "window": {"from": "2015-01-01",
                                      "to": "2016-01-01"},
               "granularity": "day", "users": 2000,
               "entities": [{"id": f"ent:E{i:02d}", "rate": 1}
                            for i in range(20)],
               "extra_mention_prob": 0.1, "events": []}
        rows, _ = ep.generate(ep.scenario_from_json(doc))
        path = tmp_path / "day.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            idx, _, _ = build_streaming(path, ep.Granularity.DAY, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        postings = idx.dump()["postings"]
        assert len(postings) == idx.posting_count() == 7300
        single = sum(1 for p in postings if p[3] == 1)
        assert single > 0.85 * len(postings)
        assert peak < 600 * len(postings)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        idx = build(make_corpus([]))
        path = tmp_path / "empty.epx"
        ep.save(idx, path)
        again = ep.load(path)
        assert again.periods() == []
        assert again.entities == []
        assert again.delta == idx.delta
        assert again.granularity is idx.granularity

    def test_round_trip_query_equivalent(self, tmp_path):
        records, corpus, _ = build_random_corpus(21, 800)
        idx = build(corpus, delta=2.5)
        path = tmp_path / "idx.epx"
        ep.save(idx, path)
        again = ep.load(path)
        assert again.dump() == idx.dump()
        assert again.entities == idx.entities
        assert (again.granularity, again.delta) == (idx.granularity, idx.delta)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.epx"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(IndexFormatError, match="magic"):
            ep.load(path)

    def test_truncation_detected(self, tmp_path):
        _, corpus, _ = build_random_corpus(1, 200)
        path = tmp_path / "x.epx"
        ep.save(build(corpus), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(IndexFormatError):
            ep.load(path)

    def test_bit_flip_detected(self, tmp_path):
        _, corpus, _ = build_random_corpus(2, 200)
        path = tmp_path / "x.epx"
        ep.save(build(corpus), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError):
            ep.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.epx"
        ep.save(build(make_corpus([])), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version u16 low byte
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="version"):
            ep.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexFormatError):
            ep.load(tmp_path / "absent.epx")


def every_answer(index) -> list:
    """What every query API and output format answers for every entity (and
    an unknown one), every period (and an empty one) and every pair."""
    names = index.entities + ["ent:UNKNOWN"]
    periods = index.periods() + [
        ep.period_of(datetime(2014, 7, 15, tzinfo=timezone.utc),
                     index.granularity)]
    span = window(2015, 2016)
    out = []
    for e in names:
        for m in sorted(ep.MEASURES):
            points = ep.series(index, e, span, m)
            out += [points, measures.series_csv_rows(points, m),
                    measures.series_json_records(points, m)]
            for direction in ("high", "low"):
                ranked = ep.top_k_periods(index, e, span, m, 3, direction)
                out += [ranked,
                        measures.ranked_periods_csv_rows(ranked, index),
                        measures.ranked_periods_json_records(ranked, index)]
        others = [o for o in names if o != e]
        for p in periods:
            out += [index.posting(e, p), index.period_slice(p),
                    ep.connectedness_to_set(index, e, others[:3], p)]
            for net in (ep.k_network(index, e, p, 3),
                        ep.signed_k_network(index, e, p, 3, "positive", 1.0),
                        ep.signed_k_network(index, e, p, 3, "negative", 1.0)):
                out += [net, relations.network_csv_rows(net),
                        relations.network_json_records(net),
                        relations.network_edge_rows(net)]
            for o in others:
                out += [ep.direct_connectedness(index, e, o, p),
                        ep.indirect_connectedness(index, e, o, p),
                        ep.indirect_connectedness(index, e, o, p,
                                                  include_self=True)]
    return out


def epx1_empty_index() -> bytes:
    """An empty index in the EPX1 layout: magic "EPX1", version 1, and
    SDIC, SLIC and POST sections holding zero items."""
    payload = bytes(4) + bytes(4) + bytes(8)
    base = 22 + 3 * 20
    table = b"".join(struct.pack("<4sQQ", tag, base + off, n) for tag, off, n
                     in ((b"SDIC", 0, 4), (b"SLIC", 4, 4), (b"POST", 8, 8)))
    header = struct.pack("<4sHBBdIH", b"EPX1", 1, 2, 0, 2.0,
                         zlib.crc32(payload), 3)
    return header + table + payload


class TestContainer:
    @pytest.mark.parametrize("granularity", ep.Granularity)
    def test_save_load_dump_equal(self, tmp_path, granularity):
        _, corpus, _ = build_random_corpus(5, 500, max_entities=10)
        idx = ep.build(corpus, granularity, 1.5)
        path = tmp_path / "idx.epx"
        ep.save(idx, path)
        again = ep.load(path)
        assert again.posting_count() == idx.posting_count() > 0
        assert again.periods() == idx.periods()
        want = idx.dump()
        assert len(want["postings"]) == idx.posting_count()
        assert again.dump() == want
        # A loaded index saves back to the same bytes.
        ep.save(again, tmp_path / "again.epx")
        assert (tmp_path / "again.epx").read_bytes() == path.read_bytes()

    def test_loaded_index_answers_like_built(self, tmp_path):
        _, corpus, _ = build_random_corpus(17, 500, max_entities=6)
        idx = build(corpus, delta=1.0)
        path = tmp_path / "idx.epx"
        ep.save(idx, path)
        assert every_answer(ep.load(path)) == every_answer(idx)

    def test_epx1_file_rejected_with_version_error(self, tmp_path):
        path = tmp_path / "old.epx"
        path.write_bytes(epx1_empty_index())
        with pytest.raises(IndexFormatError,
                           match="unsupported format version 1"):
            ep.load(path)

    # Fields of A's only posting, the first in POST: a 56-byte record
    # (ordinal i32 at 0, text count u64 at 4, ..., co-entity count u32 at
    # 52), then one co-entity record (B's id u32 at 56, shared texts u64 at
    # 60, attitude i64 at 68).
    @pytest.mark.parametrize("at,fmt,value,needle", [
        (56, "<I", 2, "co-entity"),
        (56, "<I", 0, "co-entity"),
        (4, "<Q", 0, "no texts"),
        (60, "<Q", 0, "shared-text count"),
        (60, "<Q", 2, "shared-text count"),
        (0, "<i", date(2015, 7, 2).toordinal(), "no period slice"),
        (52, "<I", 0, "does not end"),
    ])
    def test_crafted_block_fails_at_first_touch(self, tmp_path, at, fmt,
                                                value, needle):
        corpus = make_corpus([row("t1", "u1", "2015-07-05T10:00:00Z",
                                  [("A", 1.0), ("B", 1.0)], 3, -1)])
        path = tmp_path / "x.epx"
        ep.save(build(corpus), path)
        blob = bytearray(path.read_bytes())
        post, _ = epx_section(blob, b"POST")
        assert struct.unpack_from("<iQQqqQQIIQq", blob, post) == (
            date(2015, 7, 1).toordinal(), 1, 1, 2, 2, 1, 0, 1, 1, 1, 2)
        struct.pack_into(fmt, blob, post + at, value)
        path.write_bytes(reseal_epx(blob))
        idx = ep.load(path)
        assert idx.posting_count() == 2
        assert ep.k_network(idx, "B", month(2015, 7), 3).entries
        with pytest.raises(IndexFormatError, match=needle):
            ep.k_network(idx, "A", month(2015, 7), 3)
        with pytest.raises(IndexFormatError, match=needle):
            ep.inspect_file(path, verify=True)

    def test_inspect_reads_the_directory_and_verify_counts_pairs(
            self, tmp_path):
        _, corpus, _ = build_random_corpus(8, 400, max_entities=8)
        idx = build(corpus)
        path = tmp_path / "idx.epx"
        ep.save(idx, path)
        info = ep.inspect_file(path)
        assert (info["magic"], info["version"]) == ("EPX2", 2)
        assert set(info["sections"]) == {"SDIC", "SLIC", "POST", "PDIR"}
        assert (info["entities"], info["periods"], info["postings"]) == (
            len(idx.entities), len(idx.periods()), idx.posting_count())
        assert "cooccur_pairs" not in info
        fanouts = [len(p[-1]) for p in idx.dump()["postings"]]
        assert ep.inspect_file(path, verify=True) == dict(
            info, cooccur_pairs=sum(fanouts),
            cooccur_fanout_max=max(fanouts))


# Seeded archive of 1087 texts over 2015: eight entities, 60 users, extra
# mentions, a linked pair, a signed pair and a spike. At day granularity
# most postings have one user and no co-entity; at month and year every
# posting has several users.
GOLDEN_DOC = {
    "seed": 2013, "window": {"from": "2015-01-01", "to": "2016-01-01"},
    "granularity": "month", "users": 60,
    "entities": [{"id": f"ent:E{i:02d}", "rate": 4 + 2 * i}
                 for i in range(8)],
    "extra_mention_prob": 0.3,
    "events": [
        {"kind": "pair-link", "period": "2015-03", "a": "ent:E01",
         "b": "ent:E05", "texts": 9},
        {"kind": "signed-pair", "period": "2015-08", "a": "ent:E02",
         "b": "ent:E07", "texts": 6, "attitude": -3},
        {"kind": "popularity-spike", "period": "2015-11",
         "entity": "ent:E00", "factor": 5}],
}
GOLDEN_SHA256 = {
    "day":
        "2c53954d3cb41f82a67ce7416e0104341387ed02838bce9ba5bbb8bee0183e3b",
    "week":
        "b4520831937ac01006e3bb3905ece13f6fc45a0593c5af7bef33c0da32387231",
    "month":
        "166bcca5068c98a406104355f1b786d1914f4b5c9aa942618f2a79b99bf11d57",
    "year":
        "8ccdb831f4ba8858affb4cc78918a5af7b59bfe52d793c7351d9d754fcdddd67",
}


class TestGoldenBytes:
    """Saved indexes of a fixed archive keep their exact bytes, so a
    rewrite of the build's accumulators cannot move a count unseen."""

    @pytest.mark.parametrize("case", GOLDEN_SHA256)
    def test_saved_bytes_are_pinned(self, tmp_path, case):
        rows, _ = ep.generate(ep.scenario_from_json(GOLDEN_DOC))
        assert len(rows) == 1087
        idx, _, _ = build_streaming(iter(rows), ep.Granularity.parse(case),
                                    1.5)
        path = tmp_path / "golden.epx"
        ep.save(idx, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            GOLDEN_SHA256[case]


    def test_ignored_build_keywords_leave_bytes_pinned(self, tmp_path):
        rows, _ = ep.generate(ep.scenario_from_json(GOLDEN_DOC))
        corpus, _ = ep.ingest(iter(rows))
        idx = ep.build(corpus, ep.Granularity.YEAR, 1.5, approx_users=True,
                       max_workers=2)
        path = tmp_path / "golden.epx"
        ep.save(idx, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            GOLDEN_SHA256["year"]


class TestIgnoredBuildKeywords:
    """``build`` still takes ``approx_users`` and ``max_workers`` and counts
    exactly whatever they say."""

    def test_approx_users_counts_every_user_exactly(self):
        rows = [row(f"t{i}", f"user{i}", "2015-07-05T10:00:00Z",
                    [("A", 1.0)], 1, -1) for i in range(5000)]
        corpus = make_corpus(rows)
        idx = build(corpus, approx_users=True, max_workers=4)
        assert idx.posting("A", month(2015, 7)).user_count == 5000
        assert idx.slice_counts(month(2015, 7)) == (5000, 5000)
        assert idx.dump() == build(corpus).dump()


@pytest.fixture(scope="module")
def small_epx(tmp_path_factory):
    """A saved small index, and a path to write mutated copies to."""
    _, corpus, _ = build_random_corpus(4, 150, max_entities=4)
    work = tmp_path_factory.mktemp("fuzz")
    ep.save(build(corpus, delta=1.0), work / "base.epx")
    return (work / "base.epx").read_bytes(), work / "fuzz.epx"


class TestCraftedFiles:
    @settings(max_examples=60, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(min_value=0),
                                    st.integers(1, 255)),
                          min_size=1, max_size=3))
    def test_resealed_byte_flips_fail_typed_or_answer(self, small_epx, flips):
        """Byte flips with the CRC recomputed either fail with
        IndexFormatError, at load or at the first query touching the bad
        block (and then ``inspect --verify`` fails too), or leave an index
        on which every query API answers."""
        base, path = small_epx
        blob = bytearray(base)
        for at, mask in flips:
            blob[at % len(blob)] ^= mask
        path.write_bytes(reseal_epx(blob))
        try:
            loaded = ep.load(path)
        except IndexFormatError:
            return
        try:
            ep.inspect_file(path, verify=True)
            verified = True
        except IndexFormatError:
            verified = False
        try:
            every_answer(loaded)
        except IndexFormatError:
            assert not verified
        else:
            assert verified


def saved_index(tmp_path, seed=17, name="idx.epx"):
    """(built index, path it is saved at) for a small random corpus."""
    _, corpus, _ = build_random_corpus(seed, 500, max_entities=6)
    idx = build(corpus, delta=1.0)
    path = tmp_path / name
    ep.save(idx, path)
    return idx, path


class TestOpenFile:
    """A loaded index reads its blocks from the open file, not a copy."""

    def test_load_holds_a_small_part_of_the_file(self, tmp_path):
        # Two years of days with 40 entities: ~2.2 MB, nearly all POST.
        doc = {"seed": 7, "window": {"from": "2015-01-01",
                                     "to": "2017-01-01"},
               "granularity": "day", "users": 50,
               "entities": [{"id": f"ent:E{i:02d}", "rate": 1}
                            for i in range(40)],
               "extra_mention_prob": 0.3, "events": []}
        rows, _ = ep.generate(ep.scenario_from_json(doc))
        path = tmp_path / "big.epx"
        ep.save(ep.build(make_corpus(rows), ep.Granularity.DAY, 1.0), path)
        size = path.stat().st_size
        assert size >= 2 << 20
        tracemalloc.start()
        try:
            idx = ep.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with idx:
            assert peak < size / 4
            assert idx.posting_count() > 29_000

    def test_answers_survive_an_atomic_replace(self, tmp_path):
        idx, path = saved_index(tmp_path)
        other, _ = saved_index(tmp_path, seed=18, name="other.epx")
        with ep.load(path) as loaded:
            ep.save(other, path)  # write_atomic: a new file renamed over it
            assert every_answer(loaded) == every_answer(idx)
        with ep.load(path) as replaced:
            assert replaced.dump() == other.dump() != idx.dump()

    def test_truncation_after_load_fails_typed(self, tmp_path):
        idx, path = saved_index(tmp_path)
        post, _ = epx_section(path.read_bytes(), b"POST")
        first, last = idx.entities[0], idx.entities[-1]
        with ep.load(path) as loaded:
            assert loaded.entity_postings(first)  # decoded before the cut
            os.truncate(path, post)  # in place: the same file, cut short
            with pytest.raises(IndexFormatError, match="cut short"):
                loaded.entity_postings(last)
            assert loaded.entity_postings(first) == \
                idx.entity_postings(first)

    def test_close_is_idempotent_and_typed(self, tmp_path):
        idx, path = saved_index(tmp_path)
        first, last = idx.entities[0], idx.entities[-1]
        with ep.load(path) as loaded:
            assert loaded.entity_postings(first) == \
                idx.entity_postings(first)
        with pytest.raises(ValueError, match="index is closed"):
            loaded.entity_postings(last)
        with pytest.raises(ValueError, match="index is closed"):
            ep.series(loaded, last, window(2015, 2016), "attitude")
        loaded.close()
        loaded.close()
        # Decoded entities still answer; a built index has no file.
        assert loaded.entity_postings(first) == idx.entity_postings(first)
        idx.close()
        assert idx.entity_postings(last)

