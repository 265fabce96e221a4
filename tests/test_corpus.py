import csv
import gzip
import io
import os
import random
import stat
from collections import deque
from datetime import datetime, timezone
from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entity_pulse as ep
from entity_pulse.corpus import (REASON_DUPLICATE_ID, REASON_FIELD_COUNT,
                                 REASON_MENTIONS, REASON_SENTIMENT,
                                 REASON_TIMESTAMP, IngestError, Rejection,
                                 _parse_any_timestamp, _parse_mentions,
                                 _parse_timestamp, csv_rows, encode_id,
                                 record_line, scan, write_records,
                                 write_rejections)
from entity_pulse.files import write_atomic
from entity_pulse.index import build_streaming

from helpers import build_random_corpus, damaged_gzip, row

UTC = timezone.utc


class TestParseRecord:
    def test_two_mention_row(self):
        line = ('t1,u9,2016-10-03T14:00:00Z,'
                '"dbp:Donald_Trump:-2.1;dbp:Iraq_War:-2.8",1,-3')
        rec = ep.parse_record(line)
        assert isinstance(rec, ep.AnnotatedText)
        assert rec.mentions == (("dbp:Donald_Trump", -2.1),
                                ("dbp:Iraq_War", -2.8))
        assert (rec.positive, rec.negative) == (1, -3)
        assert rec.attitude == -2
        assert rec.sentimentality == 2

    def test_no_mentions_neutral(self):
        rec = ep.parse_record('t2,u1,2015-07-05T10:00:00Z,"",1,-1')
        assert rec.mentions == ()
        assert rec.attitude == 0
        assert rec.sentimentality == 0

    def test_positive_out_of_range(self):
        rej = ep.parse_record("t1,u1,2015-07-05T10:00:00Z,,6,-1", row=3)
        assert rej == Rejection(3, REASON_SENTIMENT)

    def test_negative_out_of_range(self):
        rej = ep.parse_record("t1,u1,2015-07-05T10:00:00Z,,1,0")
        assert rej.reason == REASON_SENTIMENT

    def test_non_integer_sentiment(self):
        rej = ep.parse_record("t1,u1,2015-07-05T10:00:00Z,,ok,-1")
        assert rej.reason == REASON_SENTIMENT

    def test_bad_timestamp(self):
        rej = ep.parse_record("t1,u1,someday,,1,-1")
        assert rej.reason == REASON_TIMESTAMP

    def test_wrong_field_count(self):
        assert ep.parse_record("t1,u1,2015-07-05T10:00:00Z,,1").reason == \
            REASON_FIELD_COUNT
        assert ep.parse_record("a,b,c,d,e,f,g,h").reason == REASON_FIELD_COUNT

    def test_malformed_mentions(self):
        # NaN has no order, so no max confidence can be kept for it.
        bad = ["noconfidence", "ent:notanumber", ":1.0", "a:1.0;;b:2.0",
               "e:nan", "e:NaN", "e:-nan", "e:nan;e:1.0", "e:1.0;e:nan"]
        for ment in bad:
            line = f'x,u,2015-07-05T10:00:00Z,"{ment}",1,-1'
            rej = ep.parse_record(line)
            assert isinstance(rej, Rejection) and rej.reason == REASON_MENTIONS

    def test_duplicate_mentions_keep_max_confidence(self):
        rec = ep.parse_record('t,u,2015-07-05T10:00:00Z,"e:1.0;e:3.5;e:2.0",1,-1')
        assert rec.mentions == (("e", 3.5),)

    def test_infinite_confidence_is_kept(self):
        rec = ep.parse_record(
            't,u,2015-07-05T10:00:00Z,"e:inf;f:-inf;e:1.0",1,-1')
        assert rec.mentions == (("e", float("inf")), ("f", float("-inf")))

    def test_percent_decoding(self):
        rec = ep.parse_record('t,u,2015-07-05T10:00:00Z,"a%3Ab%3Bc%2Cd:0.5",1,-1')
        assert rec.mentions == (("a:b;c,d", 0.5),)

    def test_mention_ids_decode_as_unquote(self):
        # Ids without "%" skip unquote; with one, they must still decode
        # exactly as a strict unquote does, stray escapes kept verbatim.
        heads = ["plain", "100%", "a%3Ab", "%41%42", "50%%", "%zz", "%E2%82%AC",
                 "%c3%a9", "dbp:Iraq_War"]
        raw = ";".join(f"{h}:1.5" for h in heads)
        want = tuple((unquote(h, errors="strict"), 1.5) for h in heads)
        decoded = {}
        assert _parse_mentions(raw, decoded) == want
        assert _parse_mentions(raw, decoded) == want  # memoised ids

    @pytest.mark.parametrize("raw", [
        "x%FF:1.0", "x%C3:1.0", "x%ED%A0%80:1.0", "ok:1.0;a%E2%82:0.5",
        "x%FF:1.0;x%FE:2.0;x%e9:0.5"])
    def test_an_id_that_is_not_utf8_rejects_its_row(self, raw):
        # Invalid, cut and surrogate sequences: none may become U+FFFD,
        # which merged every such id into one entity.
        decoded = {}
        for _ in range(2):  # the second read hits the memo
            assert _parse_mentions(raw, decoded) is None
        rej = ep.parse_record(f'x,u,2015-07-05T10:00:00Z,"{raw}",1,-1')
        assert rej == Rejection(0, REASON_MENTIONS)

    def test_offset_timestamp_normalized_to_utc(self):
        rec = ep.parse_record("t,u,2015-07-05T12:00:00+02:00,,1,-1")
        assert rec.timestamp == datetime(2015, 7, 5, 10, tzinfo=UTC)

    def test_subsecond_truncated(self):
        rec = ep.parse_record("t,u,2015-07-05T10:00:00.987Z,,1,-1")
        assert rec.timestamp.microsecond == 0

    def test_optional_text_column(self):
        rec = ep.parse_record('t,u,2015-07-05T10:00:00Z,,1,-1,hello there')
        assert rec.text == "hello there"


class TestDerivedScores:
    @pytest.mark.parametrize("pos,neg,phi", [(3, -4, -1), (1, -1, 0), (5, -1, 4)])
    def test_attitude(self, pos, neg, phi):
        rec = ep.parse_record(row("t", "u", "2015-01-01T00:00:00Z", [], pos, neg))
        assert rec.attitude == phi

    @pytest.mark.parametrize("pos,neg,psi", [(3, -4, 5), (1, -1, 0), (5, -5, 8)])
    def test_sentimentality(self, pos, neg, psi):
        rec = ep.parse_record(row("t", "u", "2015-01-01T00:00:00Z", [], pos, neg))
        assert rec.sentimentality == psi


# NUL is unrepresentable in the row format; surrogates are not valid text.
_entity_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1, max_size=25)
_opaque_ids = st.text(
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="\x00\r\n"),
    min_size=1, max_size=12)
_confidences = st.floats(allow_nan=False, allow_infinity=False,
                         min_value=-50, max_value=50)
# Every year the row format takes, including those below 1000.
_timestamps = st.datetimes(min_value=datetime(1, 1, 1),
                           max_value=datetime(9998, 12, 31, 23, 59, 59)).map(
    lambda d: d.replace(tzinfo=UTC, microsecond=0))


@st.composite
def annotated_texts(draw):
    mentions = draw(st.lists(
        st.tuples(_entity_ids, _confidences), max_size=4,
        unique_by=lambda m: m[0]))
    text = draw(st.none() | st.text(
        st.characters(blacklist_categories=("Cs",),
                      blacklist_characters="\x00"), max_size=30))
    return ep.AnnotatedText(
        draw(_opaque_ids), draw(_opaque_ids), draw(_timestamps),
        tuple(mentions), draw(st.integers(1, 5)), draw(st.integers(-5, -1)),
        text)


def line_of(rec) -> str:
    """The canonical CSV line of ``rec``, as the program writes rows."""
    return record_line(rec.text_id, rec.user_id, rec.timestamp,
                       [(encode_id(e), c) for e, c in rec.mentions],
                       rec.positive, rec.negative, rec.text)


@st.composite
def near_canonical_timestamps(draw) -> str:
    """A canonical ``YYYY-MM-DDTHH:MM:SSZ`` string with up to three
    characters replaced, inserted or deleted."""
    chars = list(draw(_timestamps).isoformat()[:19] + "Z")
    edits = st.sampled_from("0123456789\u0663\uff15\u0e51zZT:+-. ,\x00")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert" or at == len(chars):
            chars.insert(at, draw(edits))
        elif kind == "replace":
            chars[at] = draw(edits)
        else:
            del chars[at]
    return "".join(chars)


class TestTimestampFastPath:
    @settings(max_examples=500)
    @given(st.text(max_size=24) | near_canonical_timestamps()
           | _timestamps.map(lambda d: d.isoformat()[:19] + "Z"))
    @example("2015-07-05T10:00:00z")
    @example("2015-07-05T10:00:00+02:00")
    @example("2015-07-05T10:00:00.5Z")
    @example("2015-07-05T100000.5Z")
    @example(" 2015-07-05T10:00:00Z")
    @example("2015-07-05T10:00:00Z ")
    @example("2015-02-30T10:00:00Z")
    @example("9999-12-31T23:59:59Z")
    @example("0001-01-01T00:00:00Z")
    @example("2015-W27-1T10:00:00Z")
    @example("2015-07-05T10:00:0\u0663Z")
    @example("\uff12015-07-05T10:00:00Z")
    @example("2015-07-05T24:00:00Z")
    def test_equals_the_full_parser(self, raw):
        assert repr(_parse_timestamp(raw)) == repr(_parse_any_timestamp(raw))


class TestRoundTrip:
    @given(annotated_texts())
    def test_serialize_parse_identity(self, rec):
        assert ep.parse_record(line_of(rec)) == rec

    @settings(deadline=None)
    @given(rec=annotated_texts())
    def test_serialized_form_is_a_fixed_point(self, tmp_path_factory, rec):
        # What ``epx ingest --output`` writes for the line is the line.
        line = line_of(rec)
        out = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_records(*scan([line]), out)
        assert out.read_bytes() == (line + "\n").encode("utf-8")

    @given(annotated_texts())
    def test_sentimentality_identity(self, rec):
        assert rec.sentimentality + 2 == rec.positive - rec.negative
        assert -4 <= rec.attitude <= 4
        assert 0 <= rec.sentimentality <= 8


class TestIngest:
    def test_counts_with_one_malformed_row(self):
        rows = [
            row("t1", "u1", "2015-01-05T00:00:00Z", [("a", 1.0)], 1, -1),
            "garbage,row",
            row("t2", "u2", "2015-02-05T00:00:00Z", [], 2, -2),
        ]
        corpus, stats = ep.ingest(iter(rows))
        assert stats.record_count == 2
        assert stats.rejected_count == 1
        assert corpus.rejections == [Rejection(2, REASON_FIELD_COUNT)]

    def test_confidence_threshold_drops_mention_keeps_record(self):
        rows = [row("t1", "u1", "2015-01-05T00:00:00Z",
                    [("a", -3.5), ("b", -2.9)], 1, -1)]
        corpus, stats = ep.ingest(iter(rows), min_confidence=-3)
        assert stats.record_count == 1
        rec = next(corpus.records())
        assert rec.mentions == (("b", -2.9),)

    def test_threshold_boundary_is_inclusive(self):
        rows = [row("t1", "u1", "2015-01-05T00:00:00Z", [("a", -3.0)], 1, -1)]
        corpus, _ = ep.ingest(iter(rows), min_confidence=-3)
        assert len(next(corpus.records()).mentions) == 1

    def test_nan_threshold_is_refused_before_any_row_is_read(self):
        def untouched():
            raise AssertionError("the source was read")
            yield  # pragma: no cover

        nan = float("nan")
        for call in (lambda: scan(untouched(), nan),
                     lambda: ep.ingest(untouched(), nan),
                     lambda: build_streaming(untouched(), ep.Granularity.DAY,
                                             2.0, min_confidence=nan)):
            with pytest.raises(ValueError, match="min_confidence.*NaN"):
                call()

    def test_nul_is_read_like_any_other_character(self):
        rows = [row("t\x001", "u\x00", "2015-01-05T00:00:00Z",
                    [("A\x00", 1.0)], 1, -1)]
        corpus, stats = ep.ingest(iter(rows))
        assert stats.rejected_count == 0
        assert corpus.entities == ["A\x00"]
        assert next(corpus.records()).text_id == "t\x001"

    def test_empty_source(self):
        corpus, stats = ep.ingest(iter([]))
        assert stats == ep.CorpusStats(0, 0, 0, None)

    def test_duplicate_text_id_rejected(self):
        rows = [row("t1", "u1", "2015-01-05T00:00:00Z", [], 1, -1),
                row("t1", "u2", "2015-01-06T00:00:00Z", [], 1, -1)]
        corpus, stats = ep.ingest(iter(rows))
        assert stats.record_count == 1
        assert corpus.rejections == [Rejection(2, REASON_DUPLICATE_ID)]

    def test_stats_order_insensitive(self):
        rng = random.Random(5)
        rows = [row(f"t{i}", f"u{i % 7}",
                    f"2015-{rng.randint(1, 12):02d}-10T00:00:00Z",
                    [("e", 0.5)], rng.randint(1, 5), -rng.randint(1, 5))
                for i in range(60)]
        _, base = ep.ingest(iter(rows))
        for seed in range(3):
            shuffled = rows[:]
            random.Random(seed).shuffle(shuffled)
            _, stats = ep.ingest(iter(shuffled))
            assert stats == base

    @pytest.mark.parametrize("seed", [0, 5, 12])
    def test_records_equal_the_parsed_rows_in_time_order(self, seed):
        # ``ingest`` then ``records()`` and ``parse_record`` build one
        # record from a row alike; ``ingest`` stably sorts by timestamp.
        _, corpus, rows = build_random_corpus(seed, 300)
        parsed = sorted(map(ep.parse_record, rows), key=lambda r: r.timestamp)
        assert list(corpus.records()) == parsed

    def test_records_sorted_by_time(self):
        rows = [row("a", "u", "2015-01-20T00:00:00Z", [], 1, -1),
                row("b", "u", "2015-01-05T00:00:00Z", [], 1, -1),
                row("c", "u", "2015-01-10T00:00:00Z", [], 1, -1)]
        corpus, _ = ep.ingest(iter(rows))
        assert [r.text_id for r in corpus.records()] == ["b", "c", "a"]

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "corpus.csv.gz"
        body = row("t1", "u1", "2015-01-05T00:00:00Z", [("a", 1.0)], 1, -1)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(body + "\n")
        _, stats = ep.ingest(path)
        assert stats.record_count == 1

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_an_ingest_error(self, tmp_path, damage):
        path = tmp_path / "corpus.csv.gz"
        path.write_bytes(damaged_gzip(
            [row(f"t{i}", "u1", "2015-01-05T00:00:00Z", [("a", 1.0)], 1, -1)
             for i in range(2000)], damage))
        with pytest.raises(IngestError,
                           match=r"^unreadable source after row \d+: "):
            deque(csv_rows(path), maxlen=0)

    def test_a_field_past_the_csv_limit_ends_the_scan(self, tmp_path):
        # csv.reader resumes after such a field at the next physical line,
        # so the tail of a quoted field that spans lines reads as a row.
        # The scan ends at the field rather than skip one row.
        good = "t1,u1,2015-01-05T00:00:00Z,,1,-1"
        big = f't2,u1,2015-01-05T00:00:00Z,,1,-1,"{"x" * 200_000}\nz"'
        text = f"{good}\n{big}\n{good}\n"
        resumed = csv.reader(io.StringIO(text, newline=""))
        assert next(resumed) == good.split(",")
        with pytest.raises(csv.Error):
            next(resumed)
        assert next(resumed) == ['z"']
        path = tmp_path / "big.csv"
        path.write_text(text, encoding="utf-8")
        rows = csv_rows(path)
        assert next(rows)[0] == 1
        with pytest.raises(IngestError, match=r"^unreadable source after row "
                           r"1: field larger than field limit \(131072\)$"):
            next(rows)

    def test_unreadable_source(self, tmp_path):
        with pytest.raises(IngestError):
            ep.ingest(tmp_path / "missing.csv")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t1,u1,2015-01-05T00:00:00Z,,1,-1\n\xff\xfe\x00invalid")
        with pytest.raises(IngestError, match="row"):
            ep.ingest(bad)

    def test_rejection_report(self, tmp_path):
        rows = ["bad", row("t1", "u1", "2015-01-05T00:00:00Z", [], 1, -1)]
        corpus, _ = ep.ingest(iter(rows))
        out = tmp_path / "rejects.csv"
        write_rejections(corpus.rejections, out)
        assert out.read_text() == f"1,{REASON_FIELD_COUNT}\n"


class TestWriteAtomic:
    def test_concurrent_writers_use_their_own_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        with write_atomic(target) as a, write_atomic(target) as b:
            a.write("from a\n")
            b.write("from b\n")
        # b is renamed into place first, then a replaces it whole.
        assert target.read_text() == "from a\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_error_keeps_the_old_file_and_removes_the_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with write_atomic(target, binary=True) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_new_file_gets_umask_permissions(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        with write_atomic(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        mode = stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode)
        assert mode == stat.S_IMODE(os.stat(plain).st_mode)
