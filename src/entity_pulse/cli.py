"""``epx`` command-line surface for the full pipeline.

Subcommands: ingest, train-spam, filter, index, inspect, series, topk,
connectedness, network, generate. Query outputs are CSV data rows (no
header; column orders are given by the ``*_csv_rows`` docstrings in
``measures`` and ``relations``, and connectedness rows are
``entity,other,period_start,period_end,kind,value``) or JSON lines;
diagnostics go to stderr as JSON lines. JSON files are read, and every
file written, through the helpers in ``files`` (CSV sources through
``corpus``), so outputs are written atomically via a temp file and
rename. Exit codes: 0 success, 1 runtime failure, 2 usage error. Every
runtime failure leaves through the one ``except`` in ``main``, as one JSON
``error`` line. An unknown entity is an answer (empty/zero output), not
an error.

``connectedness --other`` names one entity, or a set as a comma list.
Each item is percent-unescaped as a mention id in the archive is, so
``Washington%2C_D.C.`` names ``Washington,_D.C.``; an item whose escapes
are not UTF-8 is a usage error. A single target is printed decoded, a set
as given.

Each option is declared once, in ``_OPTIONS`` (its argparse keywords and
its default), and each subcommand once, in ``_COMMANDS`` (its handler,
the options it takes and those it requires). Every subcommand accepts
``--config FILE`` with a JSON object of option defaults (keys match option
names with dashes as underscores, so ``--from`` is ``from``); ``main``
merges it before dispatch, and explicit flags win over it. A key must name
an option of some subcommand, so that subcommands can share one file. A
config value must be of its option's kind: a number (an integer where the
option takes one), one of the option's choices, true/false for a flag, or
else a string. ``--granularity`` takes the same choices wherever it is
declared: a bad value is a usage error on the command line (exit 2) and a
runtime failure in a config file (exit 1). A query runs at its index's
granularity unless ``--granularity`` says otherwise (then it fails);
``epx index`` builds by month unless told otherwise.

``index``, ``ingest`` and ``filter``, the commands that read every row of
an archive, run with Python's cyclic garbage collector paused, and ``main``
restores the state it found once the command has returned or failed. The
row path makes no reference cycles, so a collection during it frees
nothing; yet every posting, set and dict it builds stays tracked, so each
full collection walks the whole growing build. The query commands read one
entity's postings at a time and keep the collector as it is.

Each ``epx`` run is a new process, and where no bytecode cache is kept
(``PYTHONDONTWRITEBYTECODE``) it compiles every module it imports. So a
query (``series``, ``topk``, ``connectedness``, ``network``, ``inspect``)
loads only this module, ``index``, ``measures``, ``relations``,
``timeline`` and ``files``: the handlers of ``ingest``, ``train-spam``,
``filter``, ``index`` and ``generate`` import ``corpus``, ``spam`` and
``synth`` themselves, and the package imports its public names on first
use.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter, deque
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple

from . import files
from . import index as index_mod
from . import measures as measures_mod
from . import relations as relations_mod
from .timeline import (Granularity, enumerate_periods, parse_period_token,
                       parse_window)


def _diag(payload: dict) -> None:
    print(json.dumps(payload), file=sys.stderr)


def _emit(args, rows: list[str]) -> None:
    if args.output:
        files.write_lines(args.output, rows)
    else:
        sys.stdout.write("\n".join(rows) + ("\n" if rows else ""))


def _by_reason(rejections) -> dict[str, int]:
    return dict(sorted(Counter(r.reason for r in rejections).items()))


def _json_lines(records: list[dict]) -> list[str]:
    return [json.dumps(r) for r in records]


def _warn_unknown_entity(index, *entities) -> None:
    for e in entities:
        if e and index.entity_id_of(e) is None:
            _diag({"warning": "unknown entity", "entity": e})


def _open_query(args, others: list[str] | None = None):
    """The index a query reads and its window, at the index's granularity
    (a given ``--granularity`` must match it). Unknown entities are warned
    about; connectedness's ``others`` must name at least one entity."""
    index = index_mod.load(args.index)
    g = index.granularity
    if args.granularity not in (None, g.value):
        raise ValueError(f"index granularity is {g.value}, "
                         f"queried {args.granularity}")
    if others == []:
        args.subparser.error("--other must name at least one entity")
    _warn_unknown_entity(index, args.entity, *others or ())
    return index, parse_window(args.from_, args.to, g)


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, and afterwards
    switch it back on only if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# -- subcommand handlers -------------------------------------------------------

def _cmd_ingest(args):
    from . import corpus as corpus_mod

    corpus, rows = corpus_mod.scan(args.input,
                                   min_confidence=args.min_confidence)
    if args.output:
        corpus_mod.write_records(corpus, rows, args.output)
    else:
        deque(rows, maxlen=0)  # stats only: fold the scan, keep no row
    if args.rejects:
        corpus_mod.write_rejections(corpus.rejections, args.rejects)
    stats = corpus.stats
    span = stats.time_span and [t.isoformat() for t in stats.time_span]
    print(json.dumps({"record_count": stats.record_count,
                      "rejected_count": stats.rejected_count,
                      "rejected_by_reason": _by_reason(corpus.rejections),
                      "distinct_users": stats.distinct_users,
                      "time_span": span}))


def _cmd_train_spam(args):
    from . import spam as spam_mod

    labeled = spam_mod.read_labeled_csv(args.input)
    model = spam_mod.train(labeled, alpha=args.alpha)
    spam_mod.save_model(model, args.model)
    print(json.dumps({"documents": len(labeled),
                      "vocabulary": len(model.vocabulary),
                      "model": args.model}))


def _cmd_filter(args):
    from . import corpus as corpus_mod
    from . import spam as spam_mod

    model = spam_mod.load_model(args.model)
    corpus, rows = corpus_mod.scan(args.input,
                                   min_confidence=args.min_confidence)
    kept, removed = spam_mod.filter_rows(rows, model)
    corpus_mod.write_records(corpus, kept, args.output)
    print(json.dumps({"removed_count": removed, "kept_count": len(kept)}))


def _cmd_index(args):
    from . import corpus as corpus_mod

    g = Granularity(args.granularity or Granularity.MONTH)
    built, stats, rejections = index_mod.build_streaming(
        args.input, g, args.delta, min_confidence=args.min_confidence)
    if args.rejects:
        corpus_mod.write_rejections(rejections, args.rejects)
    index_mod.save(built, args.output)
    print(json.dumps({"record_count": stats.record_count,
                      "rejected_count": stats.rejected_count,
                      "rejected_by_reason": _by_reason(rejections),
                      "entities": len(built.entities),
                      "periods": len(built.slices),
                      "postings": built.posting_count(),
                      "index": args.output}))


def _cmd_inspect(args):
    print(json.dumps(index_mod.inspect_file(args.index, verify=args.verify),
                     indent=2))


def _cmd_series(args):
    index, window = _open_query(args)
    points = measures_mod.series(index, args.entity, window, args.measure)
    if args.format == "json":
        rows = _json_lines(measures_mod.series_json_records(points,
                                                            args.measure))
    else:
        rows = measures_mod.series_csv_rows(points, args.measure)
    _emit(args, rows)


def _cmd_topk(args):
    index, window = _open_query(args)
    ranked = measures_mod.top_k_periods(index, args.entity, window,
                                        args.measure, args.k, args.direction)
    if args.format == "json":
        rows = _json_lines(
            measures_mod.ranked_periods_json_records(ranked, index))
    else:
        rows = measures_mod.ranked_periods_csv_rows(ranked, index)
    _emit(args, rows)


def _cmd_connectedness(args):
    items = [o for o in args.other.split(",") if o]
    others = [files.decode_id(o) for o in items]
    for item, entity in zip(items, others):
        if not entity:
            args.subparser.error(f"--other item {item!r} has an escape that "
                                 "is not UTF-8")
    if len(others) > 1 and args.kind != "direct":
        args.subparser.error(f"--kind {args.kind} takes one --other entity; "
                             "connectedness to a set is direct only")
    index, window = _open_query(args, others)
    rows: list[str] = []  # rendered as built: no list of records is held
    for period in enumerate_periods(window[0], window[1], index.granularity):
        if len(others) > 1:
            pairs = [("set", relations_mod.connectedness_to_set(
                index, args.entity, others, period))]
            target = ",".join(items)
        else:
            target = others[0]
            pairs = []
            if args.kind in ("direct", "both"):
                pairs.append(("direct", relations_mod.direct_connectedness(
                    index, args.entity, target, period)))
            if args.kind in ("indirect", "both"):
                pairs.append(("indirect",
                              relations_mod.indirect_connectedness(
                                  index, args.entity, target, period,
                                  include_self=args.include_self)))
        for kind, value in pairs:
            record = {"entity": args.entity, "other": target,
                      "period_start": period.start_date.isoformat(),
                      "period_end": period.end_date.isoformat(),
                      "kind": kind, "value": value}
            rows.append(json.dumps(record) if args.format == "json"
                        else files.csv_line(record.values()))
    _emit(args, rows)


def _cmd_network(args):
    index = index_mod.load(args.index)
    _warn_unknown_entity(index, args.entity)
    period = parse_period_token(args.period, index.granularity)
    if args.variant == "plain":
        network = relations_mod.k_network(index, args.entity, period, args.k)
    else:
        network = relations_mod.signed_k_network(
            index, args.entity, period, args.k, args.variant, args.delta,
            args.min_support)
    if args.graph_output:
        files.write_lines(args.graph_output,
                          relations_mod.network_edge_rows(network))
    if args.format == "json":
        rows = _json_lines(relations_mod.network_json_records(network))
    else:
        rows = relations_mod.network_csv_rows(network)
    _emit(args, rows)


def _cmd_generate(args):
    from . import synth as synth_mod

    manifest = synth_mod.write_corpus(synth_mod.load_scenario(args.spec),
                                      args.output, args.manifest or None)
    print(json.dumps({"rows": manifest["rows"],
                      "spam_rows": manifest["spam_rows"]}))


# -- options and subcommands ---------------------------------------------------

# Each option's argparse keywords. Every option is parsed with default None,
# so that ``_merge_config`` can tell an option left off the command line; it
# then takes the config file's value, else the "default" given here.
_OPTIONS: dict[str, dict] = {
    "--input": {}, "--rejects": {}, "--model": {}, "--index": {},
    "--entity": {}, "--to": {}, "--from": {"dest": "from_"},
    "--output": {"help": "write here atomically (default stdout)"},
    "--min-confidence": {"type": float},
    "--alpha": {"type": float, "default": 1.0},
    "--granularity": {"choices": [g.value for g in Granularity]},
    "--delta": {"type": float, "default": 2.0},
    "--verify": {"action": "store_true", "default": False,
                 "help": "decode and check every posting block too"},
    "--measure": {"choices": sorted(measures_mod.MEASURES)},
    "--k": {"type": int, "default": 10},
    "--direction": {"choices": ["high", "low"], "default": "high"},
    "--other": {"help": "target entity, or comma list for a set; each "
                        "item is percent-unescaped as in the archive, so "
                        "%%2C stands for a comma in an id"},
    "--kind": {"choices": ["direct", "indirect", "both"],
               "default": "direct"},
    "--include-self": {"action": "store_true", "default": False},
    "--period": {"help": "YYYY, YYYY-MM or YYYY-MM-DD"},
    "--variant": {"choices": ["plain", "positive", "negative"],
                  "default": "plain"},
    "--min-support": {"type": int, "default": 1},
    "--graph-output": {"help": "edge list CSV source,target,score,support"},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--spec": {"help": "scenario JSON"},
    "--manifest": {"help": "ground-truth manifest JSON path"},
    "--config": {"help": "JSON file with option defaults"},
}


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], None]
    help: str
    options: tuple[str, ...]  # in --help order; --config is added to all
    required: tuple[str, ...]  # checked in this order
    helps: dict[str, str | None] = {}  # an option's help in this command
    row_path: bool = False  # reads every row: the collector is paused


_QUERY = ("--index", "--entity")
_WINDOW = ("--from", "--to", "--granularity")
_OUTPUT = ("--format", "--output")
_COMMANDS = {
    "ingest": _Command(
        _cmd_ingest, "validate rows, report stats",
        ("--input", "--min-confidence", "--output", "--rejects"), ("--input",),
        {"--output": "canonical CSV of accepted records",
         "--rejects": "side CSV row,reason"}, row_path=True),
    "train-spam": _Command(
        _cmd_train_spam, "fit the naive Bayes spam model",
        ("--input", "--model", "--alpha"), ("--input", "--model"),
        {"--input": "labeled CSV label,text",
         "--model": "model JSON output path"}),
    "filter": _Command(
        _cmd_filter, "drop records classified as spam",
        ("--input", "--model", "--output", "--min-confidence"),
        ("--input", "--model", "--output"), {"--output": None},
        row_path=True),
    "index": _Command(
        _cmd_index, "ingest and build an index file",
        ("--input", "--output", "--granularity", "--delta", "--min-confidence",
         "--rejects"), ("--input", "--output"),
        {"--output": "index file path (.epx)"}, row_path=True),
    "inspect": _Command(_cmd_inspect, "dump index container stats as JSON",
                        ("--index", "--verify"), ("--index",)),
    "series": _Command(_cmd_series, "per-period measure series",
                       (*_QUERY, "--measure", *_WINDOW, *_OUTPUT),
                       (*_QUERY, "--measure", "--from", "--to")),
    "topk": _Command(_cmd_topk, "top-k periods by a measure",
                     (*_QUERY, "--measure", *_WINDOW, "--k", "--direction",
                      *_OUTPUT), (*_QUERY, "--measure", "--from", "--to")),
    "connectedness": _Command(
        _cmd_connectedness, "entity-to-entity connectedness over a window",
        (*_QUERY, "--other", *_WINDOW, "--kind", "--include-self", *_OUTPUT),
        (*_QUERY, "--other", "--from", "--to")),
    "network": _Command(
        _cmd_network, "k-Network for an entity and period",
        (*_QUERY, "--period", "--k", "--variant", "--delta", "--min-support",
         "--graph-output", *_OUTPUT), (*_QUERY, "--period")),
    "generate": _Command(
        _cmd_generate, "synthesize a corpus from a scenario",
        ("--spec", "--output", "--manifest"), ("--spec", "--output"),
        {"--output": "corpus CSV path"}),
}


def _key(flag: str) -> str:
    """``flag``'s config key: its name with dashes as underscores."""
    return flag[2:].replace("-", "_")


# Any subcommand's option, so that subcommands can share one config file.
_CONFIG_KEYS = {_key(flag) for flag in _OPTIONS if flag != "--config"}


def _merge_config(args: argparse.Namespace, command: _Command) -> None:
    """Set each of ``command``'s options left off the command line from the
    ``--config`` file, else to its default; then exit 2 (usage) unless
    every required option is set."""
    config = {}
    if args.config:
        config = files.read_json(args.config, "config")
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        for key in config:
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config {key}: unknown option")
    for flag in command.options:
        key, keywords = _key(flag), _OPTIONS[flag]
        dest = keywords.get("dest", key)
        if getattr(args, dest) is None:
            setattr(args, dest, _config_value(key, keywords, config[key])
                    if key in config else keywords.get("default"))
    for flag in command.required:
        if getattr(args, _OPTIONS[flag].get("dest", _key(flag))) is None:
            args.subparser.error(f"missing required option {flag}")


def _config_value(key: str, keywords: dict, value):
    """A config file's ``value`` for the option of argparse ``keywords``,
    held to what the command line accepts there; raises ValueError naming
    the ``key``."""
    if keywords.get("action") == "store_true":
        ok, kind = isinstance(value, bool), "true or false"
    elif keywords.get("type") is int:
        ok, kind = type(value) is int, "an integer"
    elif keywords.get("type") is float:
        ok, kind = type(value) in (int, float), "a number"
        value = float(value) if ok else value
    else:
        ok, kind = isinstance(value, str), "a string"
    if "choices" in keywords:
        ok = ok and value in keywords["choices"]
        kind += f" in {keywords['choices']}"
    if not ok:
        raise ValueError(f"config {key}: expected {kind}, got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epx",
        description="Entity-centric temporal analytics over annotated "
                    "short-text archives")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag in (*command.options, "--config"):
            keywords = {**_OPTIONS[flag], "default": None}
            if flag in command.helps:
                keywords["help"] = command.helps[flag]
            sp.add_argument(flag, **keywords)
        sp.set_defaults(subparser=sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        _merge_config(args, command)
        # Around the call, so the handler's build is freed before the
        # collector is back on and none of it is walked by a collection.
        with _collector_paused() if command.row_path else nullcontext():
            command.handler(args)
    except (ValueError, OSError, files.IngestError,
            index_mod.IndexFormatError) as exc:
        _diag({"error": str(exc)})
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
