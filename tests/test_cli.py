"""End-to-end ``epx`` runs through ``cli.main``."""

import csv
import json
from pathlib import Path

import pytest

import entity_pulse as ep
from entity_pulse import cli
from entity_pulse.corpus import (REASON_DUPLICATE_ID, REASON_EMPTY_ID,
                                 REASON_FIELD_COUNT, REASON_MENTIONS,
                                 REASON_SENTIMENT, REASON_TIMESTAMP, csv_line,
                                 write_rejections)

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


@pytest.mark.parametrize("granularity,min_confidence,approx", [
    ("day", None, False), ("week", None, False), ("month", None, False),
    ("year", None, False), ("week", 0.0, False), ("month", -1.0, False),
    ("month", None, True), ("year", 0.5, True),
])
def test_streaming_index_equals_ingest_then_build(tmp_path, capsys,
                                                  granularity,
                                                  min_confidence, approx):
    archive = _archive(tmp_path)
    argv = ["index", "--input", str(archive), "--output",
            str(tmp_path / "cli.epx"), "--rejects", str(tmp_path / "cli.rej"),
            "--granularity", granularity, "--delta", "1.5"]
    if min_confidence is not None:
        argv += ["--min-confidence", str(min_confidence)]
    if approx:
        argv.append("--approx-users")
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)

    corpus, stats = ep.ingest(archive, min_confidence=min_confidence)
    ep.save(ep.build(corpus, ep.Granularity.parse(granularity), 1.5,
                     approx_users=approx), tmp_path / "ref.epx")
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
