"""End-to-end ``epx`` runs through ``cli.main``."""

import csv
import gc
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import entity_pulse as ep
from entity_pulse import cli
from entity_pulse import corpus as corpus_mod
from entity_pulse.corpus import (REASON_DUPLICATE_ID, REASON_EMPTY_ID,
                                 REASON_FIELD_COUNT, REASON_MENTIONS,
                                 REASON_SENTIMENT, REASON_TIMESTAMP, csv_line,
                                 write_rejections)

from helpers import epx_section, make_corpus, reseal_epx, row
from test_synth import doc_with, spike

BAD_GRANULARITIES = ["decade", 5, None, ["month"]]


def _error_line(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert set(diag) == {"error"}
    return diag


@pytest.mark.parametrize("granularity", BAD_GRANULARITIES)
def test_generate_rejects_bad_scenario_granularity(tmp_path, capsys,
                                                   granularity):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc_with(granularity=granularity)))
    out = tmp_path / "corpus.csv"
    assert cli.main(["generate", "--spec", str(spec),
                     "--output", str(out)]) == 1
    assert "granularity" in _error_line(capsys)["error"]
    assert not out.exists()


@pytest.mark.parametrize("granularity", BAD_GRANULARITIES)
def test_series_rejects_bad_config_granularity(tmp_path, capsys,
                                               granularity):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc_with()))
    corpus, index = tmp_path / "corpus.csv", tmp_path / "corpus.epx"
    assert cli.main(["generate", "--spec", str(spec),
                     "--output", str(corpus)]) == 0
    assert cli.main(["index", "--input", str(corpus),
                     "--output", str(index)]) == 0
    capsys.readouterr()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"granularity": granularity}))
    assert cli.main(["series", "--index", str(index), "--entity", "ent:A",
                     "--measure", "popularity_cu", "--from", "2015-01",
                     "--to", "2016-01", "--config", str(config)]) == 1
    assert "granularity" in _error_line(capsys)["error"]


@pytest.mark.parametrize("entities,events,needle", [
    ([{"id": "ent:A", "rate": 2}], [spike(1e308)], "events[0].factor"),
    ([{"id": "ent:A", "rate": 2}], [spike(1e12)], "events[0].factor"),
    ([{"id": "ent:A", "rate": 0}], [spike(1e308), spike(1e308)],
     "events[0].factor"),
    ([{"id": "ent:A", "rate": 20}], [spike(1000), spike(100)],
     "events[1].factor"),
    ([{"id": "ent:A", "rate": 10**12}], [], "entities[0].rate"),
])
def test_generate_rejects_plans_past_the_texts_bound(tmp_path, capsys,
                                                     entities, events,
                                                     needle):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc_with(entities=entities, events=events)))
    out = tmp_path / "corpus.csv"
    assert cli.main(["generate", "--spec", str(spec),
                     "--output", str(out)]) == 1
    assert needle in _error_line(capsys)["error"]
    assert not out.exists()


# One row for each rejection reason but the duplicate id, in the order
# corpus.py lists the reasons.
BAD_ROWS = [
    "bad1,u1,2015-03-01T00:00:00Z,,1",
    "bad2,u1,sometime,,1,-1",
    "bad3,u1,2015-03-01T00:00:00Z,,9,-1",
    'bad4,u1,2015-03-01T00:00:00Z,"ent%3AA:high",1,-1',
    ",u1,2015-03-01T00:00:00Z,,1,-1",
]


def _archive(tmp_path) -> Path:
    """A synthetic archive with escaped ids, co-mentions, a ``100%`` id,
    rows of all six rejection reasons and a duplicate text id."""
    doc = doc_with(entities=[{"id": f"ent:{c}", "rate": 4} for c in "ABCDE"],
                   extra_mention_prob=0.5)
    rows, _ = ep.generate(ep.scenario_from_json(doc))
    first = next(csv.reader([rows[0]]))
    rows[3:3] = BAD_ROWS + [csv_line([first[0], "u9"] + first[2:])]
    rows.append(csv_line(["t100", "u1", "2015-06-10T08:00:00Z",
                          "100%:2.0;ent%3AA:-1.0", "4", "-2"]))
    rows.append(csv_line(["t101", "u2", "2015-06-11T08:00:00Z",
                          "ent%3AB:0.7;100%25:0.1", "1", "-5"]))
    path = tmp_path / "archive.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("granularity,min_confidence", [
    ("day", None), ("week", None), ("month", None), ("year", None),
    ("week", 0.0), ("month", -1.0), ("year", 0.5),
])
def test_streaming_index_equals_ingest_then_build(tmp_path, capsys,
                                                  granularity,
                                                  min_confidence):
    archive = _archive(tmp_path)
    argv = ["index", "--input", str(archive), "--output",
            str(tmp_path / "cli.epx"), "--rejects", str(tmp_path / "cli.rej"),
            "--granularity", granularity, "--delta", "1.5"]
    if min_confidence is not None:
        argv += ["--min-confidence", str(min_confidence)]
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)

    corpus, stats = ep.ingest(archive, min_confidence=min_confidence)
    ep.save(ep.build(corpus, ep.Granularity.parse(granularity), 1.5),
            tmp_path / "ref.epx")
    write_rejections(corpus.rejections, tmp_path / "ref.rej")
    assert (tmp_path / "cli.epx").read_bytes() == \
        (tmp_path / "ref.epx").read_bytes()
    assert (tmp_path / "cli.rej").read_text() == \
        (tmp_path / "ref.rej").read_text()
    assert [r.row for r in corpus.rejections] == [4, 5, 6, 7, 8, 9]
    assert summary["record_count"] == stats.record_count
    assert summary["rejected_by_reason"] == {
        reason: 1 for reason in (
            REASON_FIELD_COUNT, REASON_TIMESTAMP, REASON_SENTIMENT,
            REASON_MENTIONS, REASON_EMPTY_ID, REASON_DUPLICATE_ID)}

    assert cli.main(["ingest", "--input", str(archive),
                     "--rejects", str(tmp_path / "ingest.rej")]) == 0
    assert json.loads(capsys.readouterr().out)["rejected_by_reason"] == \
        summary["rejected_by_reason"]
    assert (tmp_path / "ingest.rej").read_text() == \
        (tmp_path / "cli.rej").read_text()


def test_crafted_co_entity_is_a_json_error(tmp_path, capsys):
    corpus = make_corpus([row("t1", "u1", "2015-07-05T10:00:00Z",
                              [("A", 1.0), ("B", 1.0)], 3, -1)])
    path = tmp_path / "x.epx"
    ep.save(ep.build(corpus, ep.Granularity.MONTH, 2.0), path)
    blob = bytearray(path.read_bytes())
    post, _ = epx_section(blob, b"POST")
    struct.pack_into("<I", blob, post + 56, 2)  # A's co-entity B -> id 2
    path.write_bytes(reseal_epx(blob))
    assert cli.main(["network", "--index", str(path), "--entity", "A",
                     "--period", "2015-07"]) == 1
    assert "co-entity" in _error_line(capsys)["error"]
    assert cli.main(["inspect", "--index", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["postings"] == 2
    assert cli.main(["inspect", "--index", str(path), "--verify"]) == 1
    assert "co-entity" in _error_line(capsys)["error"]



# Counts that no archive can give, written into the one-text index of
# test_crafted_co_entity_is_a_json_error: (section, offset in it, format,
# value). A's posting opens POST: ordinal i32, texts u64 at 4, users u64 at
# 12, attitude sum i64 at 20, sentimentality sum i64 at 28, strongly
# positive u64 at 36 and negative u64 at 44, co-entity count u32 at 52, then
# the co-entity B (u32 at 56, shared texts u64 at 60, attitude sum i64 at
# 68). The month's slice follows SLIC's u32 count: ordinal i32, texts u64 at
# 8, users u64 at 16.
CRAFTED_COUNTS = {
    "users_over_texts": [(b"POST", 12, "<Q", 2)],
    "no_users": [(b"POST", 12, "<Q", 0)],
    "texts_over_slice": [(b"POST", 4, "<Q", 2)],
    "attitude_high": [(b"POST", 20, "<q", 5)],
    "attitude_low": [(b"POST", 20, "<q", -5)],
    "sentimentality_negative": [(b"POST", 28, "<q", -1)],
    "sentimentality_high": [(b"POST", 28, "<q", 9)],
    "strong_over_texts": [(b"POST", 44, "<Q", 1)],
    "co_attitude": [(b"POST", 68, "<q", 5)],
    "slice_no_users": [(b"SLIC", 16, "<Q", 0)],
    "slice_users_over_texts": [(b"SLIC", 16, "<Q", 2)],
    "all_at_once": [(b"POST", 12, "<Q", 9), (b"POST", 20, "<q", 40),
                    (b"POST", 28, "<q", -3), (b"POST", 36, "<Q", 7),
                    (b"POST", 44, "<Q", 7)],
}


@pytest.mark.parametrize("edits", CRAFTED_COUNTS.values(),
                         ids=CRAFTED_COUNTS.keys())
def test_crafted_counts_are_a_json_error(tmp_path, capsys, edits):
    corpus = make_corpus([row("t1", "u1", "2015-07-05T10:00:00Z",
                              [("A", 1.0), ("B", 1.0)], 3, -1)])
    path = tmp_path / "x.epx"
    ep.save(ep.build(corpus, ep.Granularity.MONTH, 2.0), path)
    blob = bytearray(path.read_bytes())
    for section, at, fmt, value in edits:
        start, _ = epx_section(blob, section)
        struct.pack_into(fmt, blob, start + at, value)
    path.write_bytes(reseal_epx(blob))
    assert cli.main(["network", "--index", str(path), "--entity", "A",
                     "--period", "2015-07"]) == 1
    assert "out of range" in _error_line(capsys)["error"]
    assert cli.main(["inspect", "--index", str(path), "--verify"]) == 1
    assert "out of range" in _error_line(capsys)["error"]

def _index_file(tmp_path) -> Path:
    path = tmp_path / "archive.epx"
    assert cli.main(["index", "--input", str(_archive(tmp_path)),
                     "--output", str(path)]) == 0
    return path


@pytest.mark.parametrize("command,key,value", [
    ("index", "delta", "2"), ("index", "delta", True),
    ("index", "min_confidence", "0.5"), ("index", "min_confidence", None),
    ("index", "granularity", "decade"), ("index", "granularity", 5),
    ("inspect", "verify", "yes"), ("inspect", "verify", 1),
    ("network", "k", "3"), ("network", "k", 2.5), ("network", "k", True),
    ("network", "variant", "signed"), ("network", "entity", 7),
    ("series", "from", 2015),
])
def test_config_values_must_fit_their_option(tmp_path, capsys, command, key,
                                             value):
    if command == "index":
        out = tmp_path / "out.epx"
        argv = ["index", "--input", str(_archive(tmp_path)),
                "--output", str(out)]
    elif command == "inspect":
        argv = ["inspect", "--index", str(_index_file(tmp_path))]
        capsys.readouterr()
    elif command == "series":
        argv = ["series", "--index", str(_index_file(tmp_path)),
                "--entity", "ent:A", "--measure", "attitude",
                "--to", "2016-01"]
        capsys.readouterr()
    else:
        argv = ["network", "--index", str(_index_file(tmp_path)),
                "--period", "2015-03"]
        if key != "entity":
            argv += ["--entity", "ent:A"]
        capsys.readouterr()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    assert cli.main(argv + ["--config", str(config)]) == 1
    assert _error_line(capsys)["error"].startswith(f"config {key}: expected")
    if command == "index":
        assert not out.exists()


@pytest.mark.parametrize("key,value", [("granularty", "day"),
                                       ("approx_users", True), ("help", 1),
                                       ("from_", "2015-01"),
                                       ("config", "other.json")])
def test_config_keys_must_name_an_option(tmp_path, capsys, key, value):
    out = tmp_path / "out.epx"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    assert cli.main(["index", "--input", str(_archive(tmp_path)),
                     "--output", str(out), "--config", str(config)]) == 1
    assert _error_line(capsys)["error"] == f"config {key}: unknown option"
    assert not out.exists()


def test_approx_users_is_not_an_option(tmp_path, capsys):
    out = tmp_path / "out.epx"
    with pytest.raises(SystemExit) as exc:
        cli.main(["index", "--input", str(_archive(tmp_path)),
                  "--output", str(out), "--approx-users"])
    assert exc.value.code == 2
    assert "--approx-users" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_header_flags_are_a_json_error(tmp_path, capsys):
    path = _index_file(tmp_path)
    capsys.readouterr()
    blob = bytearray(path.read_bytes())
    blob[7] = 1  # the header's flags byte, outside the payload CRC
    path.write_bytes(blob)
    with pytest.raises(ep.IndexFormatError, match="unknown flags"):
        ep.load(path)
    assert cli.main(["inspect", "--index", str(path)]) == 1
    assert "unknown flags" in _error_line(capsys)["error"]


def test_config_values_act_like_flags(tmp_path, capsys):
    archive = _archive(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"delta": 0, "granularity": "week",
                                  "min_confidence": 0, "k": 2,
                                  "variant": "positive", "from": "2015-03",
                                  "to": "2015-06"}))
    by_flags, by_config = tmp_path / "flags.epx", tmp_path / "config.epx"
    assert cli.main(["index", "--input", str(archive), "--output",
                     str(by_flags), "--delta", "0", "--granularity", "week",
                     "--min-confidence", "0"]) == 0
    assert cli.main(["index", "--input", str(archive), "--output",
                     str(by_config), "--config", str(config)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    capsys.readouterr()
    query = ["network", "--index", str(by_config), "--entity", "ent:A",
             "--period", "2015-03-02"]
    assert cli.main(query + ["--k", "2", "--variant", "positive",
                             "--delta", "0"]) == 0
    want = capsys.readouterr().out
    assert want
    assert cli.main(query + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == want
    query = ["series", "--index", str(by_config), "--entity", "ent:A",
             "--measure", "popularity_c"]
    assert cli.main(query + ["--from", "2015-03", "--to", "2015-06"]) == 0
    want = capsys.readouterr().out
    assert len(want.splitlines()) == 14  # weeks, the index's own
    assert cli.main(query + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("missing", ["--index", "--from", "--to"])
def test_missing_required_option_is_named_by_its_flag(tmp_path, capsys,
                                                      missing):
    argv = {"--index": str(tmp_path / "x.epx"), "--entity": "A",
            "--measure": "attitude", "--from": "2015-01", "--to": "2016-01"}
    del argv[missing]
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", *(x for kv in argv.items() for x in kv)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: missing required option {missing}")


@pytest.mark.parametrize("query", [
    ["series", "--entity", "ent:A", "--measure", "popularity_cu"],
    ["topk", "--entity", "ent:A", "--measure", "attitude"],
    ["connectedness", "--entity", "ent:A", "--other", "ent:B"],
], ids=["series", "topk", "connectedness"])
def test_query_defaults_to_its_index_granularity(tmp_path, capsys, query):
    path = tmp_path / "day.epx"
    assert cli.main(["index", "--input", str(_archive(tmp_path)),
                     "--output", str(path), "--granularity", "day"]) == 0
    capsys.readouterr()
    argv = [query[0], "--index", str(path), *query[1:],
            "--from", "2015-02-01", "--to", "2015-04-01"]
    assert cli.main(argv + ["--granularity", "day"]) == 0
    want = capsys.readouterr().out
    assert want
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    assert cli.main(argv + ["--granularity", "month"]) == 1
    assert _error_line(capsys)["error"] == \
        "index granularity is day, queried month"


def _set_query(tmp_path, capsys) -> list[str]:
    """A connectedness query from ent:A to the set {ent:B, ent:C} over a
    month index. ent:A has 4 texts in January, 2 shared with ent:B and 1
    with ent:C; 1 text in February, shared with ent:C; none in March."""
    a, b, c = ("ent:A", 1.0), ("ent:B", 1.0), ("ent:C", 1.0)
    rows = [row("t1", "u1", "2015-01-05T00:00:00Z", [a, b], 1, -1),
            row("t2", "u1", "2015-01-06T00:00:00Z", [a, b, c], 1, -1),
            row("t3", "u2", "2015-01-07T00:00:00Z", [a], 1, -1),
            row("t4", "u2", "2015-01-08T00:00:00Z", [a], 1, -1),
            row("t5", "u2", "2015-02-03T00:00:00Z", [a, c], 1, -1),
            row("t6", "u3", "2015-03-03T00:00:00Z", [b], 1, -1)]
    archive, index = tmp_path / "set.csv", tmp_path / "set.epx"
    archive.write_text("\n".join(rows) + "\n")
    assert cli.main(["index", "--input", str(archive),
                     "--output", str(index)]) == 0
    capsys.readouterr()
    return ["connectedness", "--index", str(index), "--entity", "ent:A",
            "--other", "ent:B,ent:C", "--from", "2015-01", "--to", "2015-04"]


def test_connectedness_to_a_set_is_the_mean_direct_share(tmp_path, capsys):
    assert cli.main(_set_query(tmp_path, capsys)) == 0
    assert capsys.readouterr().out.splitlines() == [
        'ent:A,"ent:B,ent:C",2015-01-01,2015-02-01,set,0.375',
        'ent:A,"ent:B,ent:C",2015-02-01,2015-03-01,set,0.5',
        'ent:A,"ent:B,ent:C",2015-03-01,2015-04-01,set,']


@pytest.mark.parametrize("kind", ["indirect", "both"])
def test_connectedness_to_a_set_takes_no_indirect_kind(tmp_path, capsys,
                                                       kind):
    argv = _set_query(tmp_path, capsys) + ["--kind", kind]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"epx connectedness: error: --kind {kind} takes one --other entity; "
        "connectedness to a set is direct only")


def test_connectedness_other_items_are_unescaped_like_mentions(tmp_path,
                                                               capsys):
    # The archive stores the id "a,b" as a%2Cb; --other reads it the same
    # way, so a comma inside an id does not split it into a set.
    ab, c = ("a,b", 0.9), ("c", 0.8)
    rows = [row("t1", "u1", "2015-07-05T10:00:00Z", [ab, c], 3, -1),
            row("t2", "u2", "2015-07-05T11:00:00Z", [c], 2, -2),
            row("t3", "u1", "2015-07-06T10:00:00Z", [ab, c], 1, -1)]
    archive, index = tmp_path / "comma.csv", tmp_path / "comma.epx"
    archive.write_text("\n".join(rows) + "\n")
    assert "a%2Cb:0.9" in rows[0]
    assert cli.main(["index", "--input", str(archive), "--output",
                     str(index), "--granularity", "day"]) == 0
    capsys.readouterr()
    query = ["connectedness", "--index", str(index), "--entity", "c",
             "--from", "2015-07-05", "--to", "2015-07-07", "--other"]
    assert cli.main(query + ["a%2Cb", "--kind", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        'c,"a,b",2015-07-05,2015-07-06,direct,0.5',
        'c,"a,b",2015-07-05,2015-07-06,indirect,',
        'c,"a,b",2015-07-06,2015-07-07,direct,1.0',
        'c,"a,b",2015-07-06,2015-07-07,indirect,']
    # A set keeps its items as given; a comma still separates them.
    assert cli.main(query + ["a%2Cb,zz"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"warning": "unknown entity",
                                        "entity": "zz"}
    assert captured.out.splitlines()[0] == \
        'c,"a%2Cb,zz",2015-07-05,2015-07-06,set,0.25'
    with pytest.raises(SystemExit) as exc:
        cli.main(query + ["x%FF"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "epx connectedness: error: --other item 'x%FF' has an escape that "
        "is not UTF-8")


def _model_doc(tmp_path) -> dict:
    path = tmp_path / "model.json"
    ep.save_model(ep.train(ep.generate_labeled_docs(20, overlap=0.2, seed=1)),
                  path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("edit,needle", [
    (lambda d: {"format": d["format"], "version": d["version"]},
     "vocabulary"),
    (lambda d: [d], "model"),
    (lambda d: dict(d, vocabulary="abc"), "vocabulary"),
    (lambda d: dict(d, vocabulary=d["vocabulary"][:1] * 2), "vocabulary"),
    (lambda d: dict(d, alpha="1"), "alpha"),
    (lambda d: dict(d, alpha=0), "alpha"),
    (lambda d: dict(d, log_prior={"spam": -0.5}), "log_prior"),
    (lambda d: dict(d, token_log_likelihood={
        c: v[:-1] for c, v in d["token_log_likelihood"].items()}),
     "token_log_likelihood"),
])
def test_filter_rejects_bad_model_json(tmp_path, capsys, edit, needle):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(edit(_model_doc(tmp_path))))
    out = tmp_path / "kept.csv"
    assert cli.main(["filter", "--input", str(_archive(tmp_path)),
                     "--model", str(model), "--output", str(out)]) == 1
    assert needle in _error_line(capsys)["error"]
    assert not out.exists()


# -- the end of the calendar ---------------------------------------------------

def _year_9999_index(tmp_path, granularity) -> Path:
    """An index of two 2015 rows, built from an archive that also holds
    rows whose periods would end past the last representable date."""
    archive = tmp_path / "late.csv"
    archive.write_text("\n".join([
        row("t1", "u1", "2015-06-10T08:00:00Z", [("A", 1.0), ("B", 1.0)],
            3, -1),
        row("t2", "u2", "9999-12-31T10:00:00Z", [("A", 1.0)], 3, -1),
        row("t3", "u2", "9999-01-01T00:00:00Z", [("A", 1.0)], 3, -1),
        row("t4", "u2", "9998-12-31T23:00:00-02:00", [("A", 1.0)], 3, -1),
        row("t5", "u2", "0001-01-01T00:00:00+01:00", [("A", 1.0)], 3, -1),
        row("t6", "u3", "2015-06-11T08:00:00Z", [("B", 1.0)], 2, -4),
    ]) + "\n")
    path = tmp_path / "late.epx"
    assert cli.main(["index", "--input", str(archive), "--output", str(path),
                     "--granularity", granularity]) == 0
    return path


@pytest.mark.parametrize("granularity", ["day", "week", "month", "year"])
def test_timestamps_without_a_representable_period_are_rejected(
        tmp_path, capsys, granularity):
    path = _year_9999_index(tmp_path, granularity)
    summary = json.loads(capsys.readouterr().out)
    assert summary["record_count"] == 2
    assert summary["rejected_by_reason"] == {REASON_TIMESTAMP: 4}
    assert cli.main(["inspect", "--index", str(path), "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["periods"] == \
        (2 if granularity == "day" else 1)


@pytest.mark.parametrize("granularity", ["day", "week", "month", "year"])
@pytest.mark.parametrize("query", [
    ["series", "--entity", "A", "--measure", "attitude"],
    ["topk", "--entity", "A", "--measure", "popularity_cu"],
    ["connectedness", "--entity", "A", "--other", "B"],
], ids=["series", "topk", "connectedness"])
def test_window_up_to_the_last_day(tmp_path, capsys, granularity, query):
    path = _year_9999_index(tmp_path, granularity)
    capsys.readouterr()
    argv = [query[0], "--index", str(path), "--granularity", granularity,
            *query[1:], "--from", "9999-12-01", "--to", "9999-12-31"]
    if granularity != "day":
        # The period holding 9999-12-30 ends on 10000-01-01 or later.
        assert cli.main(argv) == 1
        assert "ends after 9999-12-31" in _error_line(capsys)["error"]
        return
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    if query[0] == "topk":
        assert lines == []  # no period of the window has any text
    else:
        assert len(lines) == 30
        assert lines[-1].startswith("A,") and "9999-12-30,9999-12-31," in \
            lines[-1]


@pytest.mark.parametrize("granularity", ["day", "week", "month", "year"])
def test_network_in_the_last_period_is_a_json_error(tmp_path, capsys,
                                                    granularity):
    path = _year_9999_index(tmp_path, granularity)
    capsys.readouterr()
    assert cli.main(["network", "--index", str(path), "--entity", "A",
                     "--period", "9999-12-31"]) == 1
    assert "ends after 9999-12-31" in _error_line(capsys)["error"]
    assert cli.main(["network", "--index", str(path), "--entity", "A",
                     "--period", "2015-06-10"]) == 0
    assert "B" in capsys.readouterr().out


@pytest.mark.parametrize("query", [
    ["series", "--entity", "ent:A", "--measure", "attitude",
     "--from", "2015-01", "--to", "99999999999999999999"],
    ["network", "--entity", "ent:A", "--period", "2015-99999999999999999999"],
], ids=["series", "network"])
def test_numbers_past_a_c_long_are_bad_period_tokens(tmp_path, capsys, query):
    argv = [query[0], "--index", str(_index_file(tmp_path)), *query[1:]]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert _error_line(capsys)["error"].startswith("bad period token")


# -- ingest and filter outputs -------------------------------------------------

# Three months out of file order, equal timestamps (kept in file order), a
# month crossed by an offset, a text column on some rows, and two rejected
# rows (a sentiment out of range and a repeated text id).
ORDER_ARCHIVE = """\
t1,u1,2015-03-10T08:00:00Z,A:0.9,3,-1
t2,u2,2015-01-20T00:00:00+01:00,A:0.5;B%3Ax:1.0,2,-3
bad,u1,2015-03-01T00:00:00Z,,9,-1
t3,u1,2015-03-10T08:00:00Z,,1,-1,"hi, there"
t4,u3,2015-02-28T23:30:00-01:00,A:1,5,-5
t1,u9,2015-01-01T00:00:00Z,,1,-1
t5,u2,2015-01-19T23:00:00.5Z,B%3Ax:0.25;A:0.7;A:0.8,4,-1,spam text
t6,u4,2014-12-31T23:59:59Z,,2,-2
"""

ORDER_OUTPUT = """\
t6,u4,2014-12-31T23:59:59Z,,2,-2
t2,u2,2015-01-19T23:00:00Z,A:0.5;B%3Ax:1.0,2,-3
t5,u2,2015-01-19T23:00:00Z,B%3Ax:0.25;A:0.8,4,-1,spam text
t4,u3,2015-03-01T00:30:00Z,A:1.0,5,-5
t1,u1,2015-03-10T08:00:00Z,A:0.9,3,-1
t3,u1,2015-03-10T08:00:00Z,,1,-1,"hi, there"
"""


def test_ingest_output_is_time_ordered_canonical_csv(tmp_path, capsys):
    archive, out = tmp_path / "archive.csv", tmp_path / "out.csv"
    archive.write_text(ORDER_ARCHIVE, encoding="utf-8")
    assert cli.main(["ingest", "--input", str(archive),
                     "--output", str(out)]) == 0
    assert out.read_bytes() == ORDER_OUTPUT.encode()
    assert json.loads(capsys.readouterr().out) == {
        "record_count": 6, "rejected_count": 2,
        "rejected_by_reason": {REASON_DUPLICATE_ID: 1, REASON_SENTIMENT: 1},
        "distinct_users": 4,
        "time_span": ["2014-12-31T23:59:59+00:00",
                      "2015-03-10T08:00:00+00:00"]}


def test_filter_output_keeps_ham_and_textless_rows(tmp_path, capsys):
    archive, out = tmp_path / "archive.csv", tmp_path / "kept.csv"
    archive.write_text(ORDER_ARCHIVE, encoding="utf-8")
    model = tmp_path / "model.json"
    ep.save_model(ep.train([("spam text offer", "spam"),
                            ("hi there friend", "ham")]), model)
    assert cli.main(["filter", "--input", str(archive), "--model", str(model),
                     "--output", str(out), "--min-confidence", "0.6"]) == 0
    assert json.loads(capsys.readouterr().out) == {"removed_count": 1,
                                                   "kept_count": 5}
    assert out.read_bytes() == b"""\
t6,u4,2014-12-31T23:59:59Z,,2,-2
t2,u2,2015-01-19T23:00:00Z,B%3Ax:1.0,2,-3
t4,u3,2015-03-01T00:30:00Z,A:1.0,5,-5
t1,u1,2015-03-10T08:00:00Z,A:0.9,3,-1
t3,u1,2015-03-10T08:00:00Z,,1,-1,"hi, there"
"""


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["index", "ingest", "filter"])
def test_nan_min_confidence_is_a_json_error(tmp_path, capsys, command, via):
    archive, out = tmp_path / "archive.csv", tmp_path / "out"
    archive.write_text(ORDER_ARCHIVE, encoding="utf-8")
    argv = [command, "--input", str(archive), "--output", str(out)]
    if command == "filter":
        model = tmp_path / "model.json"
        ep.save_model(ep.train([("spam text offer", "spam"),
                                ("hi there friend", "ham")]), model)
        argv += ["--model", str(model)]
    if via == "flag":
        argv += ["--min-confidence", "nan"]
    else:  # Python's JSON reader takes NaN, though JSON has no such number
        config = tmp_path / "cfg.json"
        config.write_text('{"min_confidence": NaN}')
        argv += ["--config", str(config)]
    assert cli.main(argv) == 1
    assert "NaN" in _error_line(capsys)["error"]
    assert not out.exists()


def test_a_nan_mention_confidence_rejects_its_row(tmp_path, capsys):
    archive, path = tmp_path / "archive.csv", tmp_path / "idx.epx"
    archive.write_text('t1,u1,2015-07-05T10:00:00Z,"e:nan;e:1.0",1,-1\n'
                       't2,u2,2015-07-05T11:00:00Z,"e:0.9;f:0.9",1,-1\n',
                       encoding="utf-8")
    assert cli.main(["index", "--input", str(archive), "--output", str(path),
                     "--granularity", "day", "--min-confidence", "0.5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["record_count"] == 1
    assert summary["rejected_by_reason"] == {REASON_MENTIONS: 1}
    assert cli.main(["series", "--index", str(path), "--entity", "e",
                     "--measure", "popularity_c", "--from", "2015-07-05",
                     "--to", "2015-07-06"]) == 0
    assert capsys.readouterr().out == \
        "e,2015-07-05,2015-07-06,popularity_c,1.0,1\n"


def test_filter_of_a_textless_archive_is_a_json_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    ep.save_model(ep.train(ep.generate_labeled_docs(20, overlap=0.2, seed=1)),
                  model)
    out = tmp_path / "kept.csv"
    assert cli.main(["filter", "--input", str(_archive(tmp_path)),
                     "--model", str(model), "--output", str(out)]) == 1
    assert "no text column" in _error_line(capsys)["error"]
    assert not out.exists()


def test_stats_only_ingest_keeps_no_rows(tmp_path, capsys):
    # A year of days, 20 entities at three texts a day: 21,900 rows. Peak
    # per row measured with Python 3.11: ~480 B while every row was kept,
    # ~110 B with only the text ids, users and entities.
    doc = {"seed": 5, "window": {"from": "2015-01-01", "to": "2016-01-01"},
           "granularity": "day", "users": 3000,
           "entities": [{"id": f"ent:{i}", "rate": 3} for i in range(20)]}
    rows, _ = ep.generate(ep.scenario_from_json(doc))
    archive = tmp_path / "day.csv"
    archive.write_text("\n".join(rows) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        assert cli.main(["ingest", "--input", str(archive)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["record_count"] == len(rows)
    assert len(rows) >= 20_000
    assert peak < 200 * len(rows)


# -- hostile input files -------------------------------------------------------

# Nests deeper than the JSON decoder's recursion limit.
DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("command", ["index", "generate", "filter"])
def test_too_deep_json_is_a_json_error(tmp_path, capsys, command):
    deep, out = tmp_path / "deep.json", tmp_path / "out"
    deep.write_text(DEEP_JSON)
    argv = {
        "index": ["index", "--input", str(_archive(tmp_path)),
                  "--config", str(deep)],
        "generate": ["generate", "--spec", str(deep)],
        "filter": ["filter", "--input", str(_archive(tmp_path)),
                   "--model", str(deep)],
    }[command]
    assert cli.main(argv + ["--output", str(out)]) == 1
    assert _error_line(capsys)["error"].startswith("cannot read ")
    assert not out.exists()


def test_train_spam_on_an_oversized_field_is_a_json_error(tmp_path, capsys):
    labeled, model = tmp_path / "labeled.csv", tmp_path / "model.json"
    labeled.write_text(csv_line(["spam", "x" * 200_000]) + "\nham,hi\n")
    assert cli.main(["train-spam", "--input", str(labeled),
                     "--model", str(model)]) == 1
    assert "field larger than field limit" in _error_line(capsys)["error"]
    assert not model.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e309"])
def test_train_spam_refuses_an_alpha_its_model_cannot_hold(tmp_path, capsys,
                                                           alpha):
    labeled, model = tmp_path / "labeled.csv", tmp_path / "model.json"
    labeled.write_text("spam,buy now\nham,hello there\n")
    assert cli.main(["train-spam", "--input", str(labeled),
                     "--model", str(model), "--alpha", alpha]) == 1
    assert "alpha" in _error_line(capsys)["error"]
    assert not model.exists()


def test_generated_years_below_1000_are_ingested(tmp_path, capsys):
    spec, archive = tmp_path / "scenario.json", tmp_path / "corpus.csv"
    spec.write_text(json.dumps(doc_with(window={"from": "0999-01-01",
                                                "to": "0999-03-01"})))
    assert cli.main(["generate", "--spec", str(spec),
                     "--output", str(archive)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows > 0
    assert cli.main(["ingest", "--input", str(archive)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["record_count"], summary["rejected_count"]) == (rows, 0)
    assert all(t.startswith("0999-") for t in summary["time_span"])
    stamps = [line.split(",")[2] for line in archive.read_text().splitlines()]
    assert all(s.startswith("0999-") for s in stamps)


# -- escaped entity ids --------------------------------------------------------

def test_ids_whose_escapes_are_not_utf8_reject_their_rows(tmp_path, capsys):
    # Before, x%FF and x%e9 both decoded to "x�" and merged.
    archive, out = tmp_path / "archive.csv", tmp_path / "out.csv"
    archive.write_text("t1,u1,2015-07-05T10:00:00Z,x%FF:1.0,1,-1\n"
                       "t2,u2,2015-07-05T11:00:00Z,x%e9:0.5,1,-1\n"
                       't3,u3,2015-07-05T12:00:00Z,"x%C3%A9:0.5;y:1.0",1,-1\n',
                       encoding="utf-8")
    assert cli.main(["ingest", "--input", str(archive),
                     "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == \
        "t3,u3,2015-07-05T12:00:00Z,xé:0.5;y:1.0,1,-1\n"
    summary = json.loads(capsys.readouterr().out)
    assert summary["rejected_by_reason"] == {REASON_MENTIONS: 2}


# -- inspect --verify: both blocks of a co-occurrence agree --------------------

def _pair_index(tmp_path) -> Path:
    """A month index where ``a`` and ``b`` share two texts (attitude sum
    1), each has one more text of its own, and ``c`` one text alone."""
    corpus = make_corpus([
        row("t1", "u1", "2015-07-05T10:00:00Z", [("a", 1.0), ("b", 1.0)], 3, -1),
        row("t2", "u2", "2015-07-06T10:00:00Z", [("a", 1.0), ("b", 1.0)], 1, -2),
        row("t3", "u1", "2015-07-07T10:00:00Z", [("a", 1.0)], 2, -1),
        row("t4", "u3", "2015-07-08T10:00:00Z", [("b", 1.0)], 1, -4),
        row("t5", "u3", "2015-07-09T10:00:00Z", [("c", 1.0)], 1, -1)])
    path = tmp_path / "pair.epx"
    ep.save(ep.build(corpus, ep.Granularity.MONTH, 2.0), path)
    return path


# a's block opens POST with one posting: its triple for b holds the shared
# texts (u64) at 60 and their attitude sum (i64) at 68, as in
# CRAFTED_COUNTS. b's block follows at 76, so its triple for a names its
# co-entity (u32) at 132; c has no co-occurrence to mirror one for b.
@pytest.mark.parametrize("at,fmt,value", [
    (60, "<Q", 1), (68, "<q", 3), (132, "<I", 2)],
    ids=["shared_texts", "attitude_sum", "mirror_missing"])
def test_verify_finds_a_pair_whose_blocks_disagree(tmp_path, capsys, at, fmt,
                                                   value):
    path = _pair_index(tmp_path)
    assert cli.main(["inspect", "--index", str(path), "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["cooccur_pairs"] == 2
    blob = bytearray(path.read_bytes())
    post, _ = epx_section(blob, b"POST")
    struct.pack_into(fmt, blob, post + at, value)
    path.write_bytes(reseal_epx(blob))
    assert cli.main(["inspect", "--index", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["inspect", "--index", str(path), "--verify"]) == 1
    assert _error_line(capsys)["error"] == (
        "co-occurrence of 'a' and 'b' in the period starting 2015-07-01 "
        "differs between their blocks")


# -- the row path runs with the collector paused -------------------------------

@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector_was(request):
    """Whether the collector is on when the test calls ``cli.main``; the
    state found before the test is restored after it."""
    found = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if found else gc.disable)()


def _row_path_argv(tmp_path, command) -> list[str]:
    archive, out = tmp_path / "archive.csv", tmp_path / "out"
    archive.write_text(ORDER_ARCHIVE, encoding="utf-8")
    argv = [command, "--input", str(archive), "--output", str(out)]
    if command == "filter":
        model = tmp_path / "model.json"
        ep.save_model(ep.train([("spam text offer", "spam"),
                                ("hi there friend", "ham")]), model)
        argv += ["--model", str(model)]
    return argv


@pytest.mark.parametrize("command", ["index", "ingest", "filter"])
def test_row_path_pauses_the_collector_and_restores_it(
        tmp_path, capsys, monkeypatch, collector_was, command):
    during = []

    def csv_rows(source):
        during.append(gc.isenabled())
        return read_rows(source)

    read_rows = corpus_mod.csv_rows
    monkeypatch.setattr(corpus_mod, "csv_rows", csv_rows)
    assert cli.main(_row_path_argv(tmp_path, command)) == 0
    assert during == [False]
    assert gc.isenabled() is collector_was


@pytest.mark.parametrize("failure", ["unreadable_row", "bad_delta"])
def test_a_failed_index_run_restores_the_collector(tmp_path, capsys,
                                                   collector_was, failure):
    argv = _row_path_argv(tmp_path, "index")
    if failure == "unreadable_row":
        # Past the reader's first decoded chunk, so rows were aggregated
        # before the IngestError.
        good = "".join(f"t{i},u1,2015-01-01T00:00:00Z,A:1.0,1,-1\n"
                       for i in range(3000))
        (tmp_path / "archive.csv").write_bytes(good.encode() + b"\xff\n")
        pattern = r"unreadable source after row [1-9]"
    else:
        argv += ["--delta", "9"]
        pattern = r"delta must be in \[0, 4\]"
    assert cli.main(argv) == 1
    assert re.match(pattern, _error_line(capsys)["error"])
    assert gc.isenabled() is collector_was
    assert not (tmp_path / "out").exists()


def test_query_commands_leave_the_collector_as_it_is(
        tmp_path, capsys, monkeypatch, collector_was):
    during = []

    def inspect_file(path, verify):
        during.append(gc.isenabled())
        return {}

    monkeypatch.setattr(cli.index_mod, "inspect_file", inspect_file)
    assert cli.main(["inspect", "--index", str(tmp_path / "x.epx")]) == 0
    assert during == [collector_was]
    assert gc.isenabled() is collector_was


# -- a query imports only the modules it runs ----------------------------------

# Runs each argv given as JSON through cli.main in a new interpreter, then
# prints the names of the modules loaded.
_RUN_AND_LIST_MODULES = """
import json, sys
from entity_pulse import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def _python(*args: str) -> str:
    """stdout of a new interpreter run with ``args``, on the package."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_query_commands_import_no_ingest_code(tmp_path):
    index = str(_pair_index(tmp_path))
    window = ["--from", "2015-07", "--to", "2015-08"]
    argvs = [
        ["series", "--index", index, "--entity", "a", "--measure",
         "attitude", *window],
        ["series", "--index", index, "--entity", "a", "--measure",
         "popularity_cu", *window, "--format", "json",
         "--output", str(tmp_path / "series.jsonl")],
        ["topk", "--index", index, "--entity", "b", "--measure",
         "controversiality", *window, "--k", "1"],
        ["connectedness", "--index", index, "--entity", "a", "--other", "b",
         *window, "--kind", "both"],
        ["connectedness", "--index", index, "--entity", "a", "--other",
         "b,c", *window],
        ["network", "--index", index, "--entity", "a", "--period",
         "2015-07", "--graph-output", str(tmp_path / "edges.csv")],
        ["network", "--index", index, "--entity", "a", "--period",
         "2015-07", "--variant", "negative", "--delta", "0"],
        ["inspect", "--index", index, "--verify"],
    ]
    assert {a[0] for a in argvs} == {"series", "topk", "connectedness",
                                     "network", "inspect"}
    out = _python("-c", _RUN_AND_LIST_MODULES, json.dumps(argvs))
    loaded = set(json.loads(out.splitlines()[-1]))
    ingest_side = {"entity_pulse.corpus", "entity_pulse.spam",
                   "entity_pulse.synth"}
    assert loaded & ingest_side == set()
    # The interpreter's own start-up (its site hooks) may load dataclasses;
    # a query must not add it.
    bare = _python("-c", "import sys; print('dataclasses' in sys.modules)")
    if bare.strip() == "False":
        assert "dataclasses" not in loaded
