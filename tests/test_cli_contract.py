"""The ``epx`` contract over drawn command lines, run in process.

Each subcommand's options are drawn from its grammar, with values taken
from small real files (archive, index, model, scenario, config), hostile
files and bad literals. Whatever the line, ``epx`` exits 0, 1 or 2 and no
exception escapes ``cli.main``. Diagnostics on stderr are JSON lines; a
runtime failure (exit 1) ends them with exactly one ``error`` line.
"""

import argparse
import contextlib
import gzip
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entity_pulse as ep
from entity_pulse import cli
from entity_pulse.corpus import csv_line

from test_cli import DEEP_JSON
from test_synth import doc_with


def _mostly(valid: list, hostile: list) -> st.SearchStrategy:
    """A value from ``valid`` in about two draws of three, else one from
    ``hostile``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(hostile))


# An ``@name`` value stands for a file that _write_files makes. These are
# the hostile ones: unreadable, empty, not UTF-8, or not the expected kind.
UNREADABLE = ["@deep", "@notutf8", "@empty", "@missing", "@dir"]
BAD_JSON = UNREADABLE + ["@list", "@archive"]
CSV_INPUTS = _mostly(["@archive", "@archive_gz", "@labeled", "@labeled_gz"],
                     UNREADABLE + ["@bigfield"])
OUTPUTS = _mostly(["@out"], ["@nodir/out", "@dir"])
FLAG = None  # an option that takes no value
WINDOW = {"--from": _mostly(["2015-01", "2015-03-02", "2015"],
                            ["9999-12-01", "2015-13", "bogus"]),
          "--to": _mostly(["2015-06", "2016-01-01"], ["2014-01", "soon"]),
          "--granularity": _mostly(["month"],
                                   ["day", "week", "year", "decade"])}
QUERY = {"--index": _mostly(["@index"], ["@index_corrupt"] + BAD_JSON),
         "--entity": st.one_of(st.sampled_from(["ent:A", "ent:B", "nobody"]),
                               st.text(max_size=6)),
         "--format": _mostly(["csv", "json"], ["xml"]),
         "--output": OUTPUTS}
MEASURES = st.sampled_from(sorted(ep.MEASURES))
REAL = _mostly(["0", "0.5", "2"], ["-1", "nan", "inf", "1e309", "x"])
COUNT = _mostly(["1", "3"], ["0", "-2", "1000000"])

# Option -> values, per subcommand, and the options each one requires.
GRAMMAR = {
    "ingest": {"--input": CSV_INPUTS, "--min-confidence": REAL,
               "--output": OUTPUTS, "--rejects": OUTPUTS},
    "train-spam": {"--input": CSV_INPUTS, "--model": OUTPUTS,
                   "--alpha": REAL},
    "filter": {"--input": CSV_INPUTS,
               "--model": _mostly(["@model"], BAD_JSON + ["@scenario"]),
               "--output": OUTPUTS, "--min-confidence": REAL},
    "index": {"--input": CSV_INPUTS, "--output": OUTPUTS,
              "--granularity": st.sampled_from(["day", "month", "decade"]),
              "--delta": REAL, "--min-confidence": REAL, "--rejects": OUTPUTS},
    "inspect": {"--index": QUERY["--index"], "--verify": FLAG},
    "series": {**QUERY, "--measure": MEASURES, **WINDOW},
    "topk": {**QUERY, "--measure": MEASURES, **WINDOW, "--k": COUNT,
             "--direction": st.sampled_from(["high", "low"])},
    "connectedness": {**QUERY, "--other": st.one_of(
        st.sampled_from(["ent:B", "ent:B,ent:C", ",", "ent:A"]),
        st.text(max_size=6)), **WINDOW,
        "--kind": st.sampled_from(["direct", "indirect", "both"]),
        "--include-self": FLAG},
    "network": {**QUERY, "--period": _mostly(["2015-03", "2015-04"],
                                             ["9999-12-31", "0000", "bad"]),
                "--k": COUNT,
                "--variant": st.sampled_from(["plain", "positive",
                                              "negative"]),
                "--delta": REAL, "--min-support": COUNT,
                "--graph-output": OUTPUTS},
    "generate": {"--spec": _mostly(["@scenario"],
                                   BAD_JSON + ["@scenario_big", "@config"]),
                 "--output": OUTPUTS, "--manifest": OUTPUTS},
}
COMMON = {"--config": _mostly(["@config"], BAD_JSON + ["@config_bad_value",
                                                       "@scenario"])}
_QUERY_REQUIRED = {"--index", "--entity", "--from", "--to"}
REQUIRED = {"ingest": {"--input"}, "train-spam": {"--input", "--model"},
            "filter": {"--input", "--model", "--output"},
            "index": {"--input", "--output"}, "inspect": {"--index"},
            "series": _QUERY_REQUIRED | {"--measure"},
            "topk": _QUERY_REQUIRED | {"--measure"},
            "connectedness": _QUERY_REQUIRED | {"--other"},
            "network": {"--index", "--entity", "--period"},
            "generate": {"--spec", "--output"}}


def _write_files(root: Path) -> dict[str, str]:
    """The files that ``@name`` values stand for, written under ``root``."""
    doc = doc_with(entities=[{"id": f"ent:{c}", "rate": 3} for c in "ABC"],
                   extra_mention_prob=0.5,
                   events=[{"kind": "spam-block", "period": "2015-04",
                            "texts": 6}])
    rows, _ = ep.generate(ep.scenario_from_json(doc))
    labeled = [csv_line([label, text]) for text, label in
               ep.generate_labeled_docs(20, overlap=0.2, seed=1)]
    files = {name: str(root / name[1:]) for name in (
        "@archive", "@labeled", "@bigfield", "@notutf8", "@empty", "@deep",
        "@list", "@scenario", "@scenario_big", "@config", "@config_bad_value",
        "@index", "@index_corrupt", "@model", "@out", "@dir")}
    files.update({"@archive_gz": files["@archive"] + ".gz",
                  "@labeled_gz": files["@labeled"] + ".gz",
                  "@missing": str(root / "missing"),
                  "@nodir/out": str(root / "nodir" / "out")})
    texts = {"@archive": "\n".join(rows) + "\n",
             "@labeled": "\n".join(labeled) + "\n",
             "@bigfield": csv_line(["spam", "x" * 200_000]) + "\nham,hi\n",
             "@empty": "", "@deep": DEEP_JSON, "@list": "[1]",
             "@scenario": json.dumps(doc),
             "@scenario_big": json.dumps(doc_with(events=[
                 {"kind": "spam-block", "period": "2015-04",
                  "texts": 10**12}])),
             "@config": json.dumps({"k": 2, "delta": 1.0,
                                    "format": "json"}),
             "@config_bad_value": json.dumps({"k": "2"})}
    for name, text in texts.items():
        Path(files[name]).write_text(text, encoding="utf-8")
    Path(files["@notutf8"]).write_bytes(b"\xff\xfe,\x80\n")
    for name in ("@archive", "@labeled"):
        with open(files[name], "rb") as src, \
                gzip.open(files[name + "_gz"], "wb") as dst:
            shutil.copyfileobj(src, dst)
    Path(files["@dir"]).mkdir()
    ep.save(ep.build(ep.ingest(files["@archive"])[0], ep.Granularity.MONTH,
                     2.0), files["@index"])
    blob = bytearray(Path(files["@index"]).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    Path(files["@index_corrupt"]).write_bytes(blob)
    ep.save_model(ep.train(ep.generate_labeled_docs(20, overlap=0.2, seed=1)),
                  files["@model"])
    return files


@st.composite
def command_lines(draw, files: dict[str, str]) -> list[str]:
    """A subcommand and options from its grammar. A required option is
    left out of about one line in eight, any other option of every second."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in {**GRAMMAR[command], **COMMON}.items():
        if flag in REQUIRED[command]:
            if draw(st.integers(0, 7)) == 7:
                continue
        elif not draw(st.booleans()):
            continue
        argv.append(flag)
        if values is not FLAG:
            value = draw(values)
            argv.append(files.get(value, value))
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_command_line_keeps_the_exit_contract():
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_files(Path(tmp))

        @settings(max_examples=100, deadline=None)
        @given(command_lines(files))
        def check(argv):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (code, err)
            assert "Traceback" not in err
            if code == 2:
                assert "usage: epx" in err
                return
            diagnostics = [json.loads(line) for line in err.splitlines()]
            assert all(isinstance(d, dict) for d in diagnostics)
            errors = [i for i, d in enumerate(diagnostics) if "error" in d]
            assert errors == ([len(diagnostics) - 1] if code else [])
            if code == 1:
                assert out == ""  # a failed command writes no result

        check()


@pytest.mark.parametrize("command", sorted(GRAMMAR))
def test_each_subcommand_takes_and_requires_its_grammar(tmp_path, command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {flag for action in sub.choices[command]._actions
             for flag in action.option_strings if flag != "-h"}
    assert flags == set(GRAMMAR[command]) | set(COMMON) | {"--help"}
    missing = str(tmp_path / "missing")
    for flag in GRAMMAR[command]:
        argv = [command]
        for other in sorted(REQUIRED[command] - {flag}):
            argv += [other, "attitude" if other == "--measure" else missing]
        code, _, err = _run(argv)
        if flag in REQUIRED[command]:  # a usage error that names it
            assert code == 2
            assert err.endswith(f": error: missing required option {flag}\n")
        else:  # the command runs, and fails on the missing file
            assert code == 1, err
    if "--granularity" in GRAMMAR[command]:
        code, _, err = _run([command, "--granularity", "decade"])
        assert code == 2
        assert "--granularity: invalid choice: 'decade'" in err
