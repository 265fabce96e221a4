"""End-to-end ``epx`` runs through ``cli.main``."""

import csv
import json
import struct
from pathlib import Path

import pytest

import entity_pulse as ep
from entity_pulse import cli
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
    else:
        argv = ["network", "--index", str(_index_file(tmp_path)),
                "--period", "2015-03"]
        if key != "entity":
            argv += ["--entity", "ent:A"]
        capsys.readouterr()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    assert cli.main(argv + ["--config", str(config)]) == 1
    assert f"config {key}:" in _error_line(capsys)["error"]
    if command == "index":
        assert not out.exists()


@pytest.mark.parametrize("key,value", [("granularty", "day"),
                                       ("approx_users", True)])
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
                                  "variant": "positive"}))
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
