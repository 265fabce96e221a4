"""``epx`` command-line surface for the full pipeline.

Subcommands: ingest, train-spam, filter, index, inspect, series, topk,
connectedness, network, generate. Query outputs are CSV data rows (no
header; column orders are given by the ``*_csv_rows`` docstrings in
``measures`` and ``relations``, and connectedness rows are
``entity,other,period_start,period_end,kind,value``) or JSON lines;
diagnostics go to stderr as JSON lines. JSON and CSV files are read, and
every file written, through ``corpus``'s file helpers, so outputs are
written atomically via a temp file and rename. Exit codes: 0 success, 1
runtime failure, 2 usage error. Every runtime failure leaves through the
one ``except`` in ``main``, as one JSON ``error`` line. An unknown entity
is an answer (empty/zero output), not an error.

Every subcommand accepts ``--config FILE`` with a JSON object of option
defaults (keys match option names with dashes as underscores, so
``--from`` is ``from``); explicit flags win over the config file. A key
must name an option of some subcommand, so that subcommands can share one
file. A config value must be of its option's kind: a number (an integer
where the option takes one), one of the option's choices, true/false for
a flag, or else a string. A query runs at its index's granularity unless
``--granularity`` says otherwise (then it fails); ``epx index`` builds by
month unless told otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, deque

from . import corpus as corpus_mod
from . import index as index_mod
from . import measures as measures_mod
from . import relations as relations_mod
from . import spam as spam_mod
from . import synth as synth_mod
from .timeline import (Granularity, enumerate_periods, parse_period_token,
                       parse_window)

_DEFAULTS = {
    "delta": 2.0,
    "k": 10,
    "min_support": 1,
    "direction": "high",
    "variant": "plain",
    "kind": "direct",
    "format": "csv",
    "alpha": 1.0,
}


def _diag(payload: dict) -> None:
    print(json.dumps(payload), file=sys.stderr)


def _emit(args, rows: list[str]) -> None:
    if args.output:
        corpus_mod.write_lines(args.output, rows)
    else:
        sys.stdout.write("\n".join(rows) + ("\n" if rows else ""))


def _by_reason(rejections) -> dict[str, int]:
    return dict(sorted(Counter(r.reason for r in rejections).items()))


def _json_lines(records: list[dict]) -> list[str]:
    return [json.dumps(r) for r in records]


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """``parser``'s options but ``--help`` and ``--config``, by config key:
    the option name with dashes as underscores (``--from`` is ``from``)."""
    return {a.option_strings[-1].lstrip("-").replace("-", "_"): a
            for a in parser._actions if a.dest not in ("help", "config")}


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  required: tuple[str, ...]) -> argparse.Namespace:
    config = {}
    if args.config:
        config = corpus_mod.read_json(args.config, "config")
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        for key in config:
            if key not in args.config_keys:
                raise ValueError(f"config {key}: unknown option")
    options = _options(parser)
    for key, action in options.items():
        if getattr(args, action.dest) is None:
            if key in config:
                value = _config_value(key, action, config[key])
            else:
                value = _DEFAULTS.get(key)
            setattr(args, action.dest, value)
    for key in required:
        if getattr(args, options[key].dest) is None:
            parser.error("missing required option "
                         f"{options[key].option_strings[-1]}")
    return args


def _config_value(key: str, action: argparse.Action, value):
    """A config file's ``value`` for ``action``'s option, held to what the
    command line accepts there; raises ValueError naming the ``key``."""
    if action.nargs == 0:  # a store_true flag
        ok, kind = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, kind = type(value) is int, "an integer"
    elif action.type is float:
        ok, kind = type(value) in (int, float), "a number"
        value = float(value) if ok else value
    else:
        ok, kind = isinstance(value, str), "a string"
    if action.choices is not None:
        ok = ok and value in action.choices
        kind += f" in {list(action.choices)}"
    if not ok:
        raise ValueError(f"config {key}: expected {kind}, got {value!r}")
    return value


def _granularity(args, index=None) -> Granularity:
    """The granularity to build at (month unless given), or to query
    ``index`` at: its own unless given, and a given one must match it."""
    if args.granularity is None:
        return Granularity.MONTH if index is None else index.granularity
    g = Granularity.parse(args.granularity)
    if index is not None and g is not index.granularity:
        raise ValueError(f"index granularity is {index.granularity.value}, "
                         f"queried {g.value}")
    return g


def _warn_unknown_entity(index, *entities) -> None:
    for e in entities:
        if e and index.entity_id_of(e) is None:
            _diag({"warning": "unknown entity", "entity": e})


# -- subcommand handlers -------------------------------------------------------

def _cmd_ingest(args, parser):
    _merge_config(args, parser, ("input",))
    corpus, rows = corpus_mod.scan(args.input,
                                   min_confidence=args.min_confidence)
    if args.output:
        corpus_mod.write_records(corpus, rows, args.output)
    else:
        deque(rows, maxlen=0)  # stats only: fold the scan, keep no row
    if args.rejects:
        corpus_mod.write_rejections(corpus.rejections, args.rejects)
    stats = corpus.stats
    span = None
    if stats.time_span:
        span = [stats.time_span[0].isoformat(), stats.time_span[1].isoformat()]
    print(json.dumps({"record_count": stats.record_count,
                      "rejected_count": stats.rejected_count,
                      "rejected_by_reason": _by_reason(corpus.rejections),
                      "distinct_users": stats.distinct_users,
                      "time_span": span}))
    return 0


def _cmd_train_spam(args, parser):
    _merge_config(args, parser, ("input", "model"))
    labeled = spam_mod.read_labeled_csv(args.input)
    model = spam_mod.train(labeled, alpha=args.alpha)
    spam_mod.save_model(model, args.model)
    print(json.dumps({"documents": len(labeled),
                      "vocabulary": len(model.vocabulary),
                      "model": args.model}))
    return 0


def _cmd_filter(args, parser):
    _merge_config(args, parser, ("input", "model", "output"))
    model = spam_mod.load_model(args.model)
    corpus, rows = corpus_mod.scan(args.input,
                                   min_confidence=args.min_confidence)
    kept, removed = spam_mod.filter_rows(rows, model)
    corpus_mod.write_records(corpus, kept, args.output)
    print(json.dumps({"removed_count": removed, "kept_count": len(kept)}))
    return 0


def _cmd_index(args, parser):
    _merge_config(args, parser, ("input", "output"))
    g = _granularity(args)
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
    return 0


def _cmd_inspect(args, parser):
    _merge_config(args, parser, ("index",))
    print(json.dumps(index_mod.inspect_file(args.index,
                                            verify=bool(args.verify)),
                     indent=2))
    return 0


def _cmd_series(args, parser):
    _merge_config(args, parser, ("index", "entity", "measure", "from", "to"))
    index = index_mod.load(args.index)
    _granularity(args, index)
    _warn_unknown_entity(index, args.entity)
    window = parse_window(args.from_, args.to, index.granularity)
    points = measures_mod.series(index, args.entity, window, args.measure)
    if args.format == "json":
        rows = _json_lines(measures_mod.series_json_records(points,
                                                            args.measure))
    else:
        rows = measures_mod.series_csv_rows(points, args.measure)
    _emit(args, rows)
    return 0


def _cmd_topk(args, parser):
    _merge_config(args, parser, ("index", "entity", "measure", "from", "to"))
    index = index_mod.load(args.index)
    _granularity(args, index)
    _warn_unknown_entity(index, args.entity)
    window = parse_window(args.from_, args.to, index.granularity)
    ranked = measures_mod.top_k_periods(index, args.entity, window,
                                        args.measure, args.k, args.direction)
    if args.format == "json":
        rows = _json_lines(
            measures_mod.ranked_periods_json_records(ranked, index))
    else:
        rows = measures_mod.ranked_periods_csv_rows(ranked, index)
    _emit(args, rows)
    return 0


def _cmd_connectedness(args, parser):
    _merge_config(args, parser, ("index", "entity", "other", "from", "to"))
    index = index_mod.load(args.index)
    _granularity(args, index)
    others = [o for o in args.other.split(",") if o]
    if not others:
        parser.error("--other must name at least one entity")
    _warn_unknown_entity(index, args.entity, *others)
    window = parse_window(args.from_, args.to, index.granularity)
    rows: list[str] = []  # rendered as built: no list of records is held
    for period in enumerate_periods(window[0], window[1], index.granularity):
        if len(others) > 1:
            pairs = [("set", relations_mod.connectedness_to_set(
                index, args.entity, others, period))]
            target = ",".join(others)
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
                                  include_self=bool(args.include_self))))
        for kind, value in pairs:
            record = {"entity": args.entity, "other": target,
                      "period_start": period.start_date.isoformat(),
                      "period_end": period.end_date.isoformat(),
                      "kind": kind, "value": value}
            rows.append(json.dumps(record) if args.format == "json"
                        else corpus_mod.csv_line(record.values()))
    _emit(args, rows)
    return 0


def _cmd_network(args, parser):
    _merge_config(args, parser, ("index", "entity", "period"))
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
        corpus_mod.write_lines(args.graph_output,
                               relations_mod.network_edge_rows(network))
    if args.format == "json":
        rows = _json_lines(relations_mod.network_json_records(network))
    else:
        rows = relations_mod.network_csv_rows(network)
    _emit(args, rows)
    return 0


def _cmd_generate(args, parser):
    _merge_config(args, parser, ("spec", "output"))
    manifest = synth_mod.write_corpus(synth_mod.load_scenario(args.spec),
                                      args.output, args.manifest or None)
    print(json.dumps({"rows": manifest["rows"],
                      "spam_rows": manifest["spam_rows"]}))
    return 0


# -- parser wiring -------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file with option defaults")
    sp.set_defaults(subparser=sp)


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=["csv", "json"])
    sp.add_argument("--output", help="write here atomically (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epx",
        description="Entity-centric temporal analytics over annotated "
                    "short-text archives")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate rows, report stats")
    p.add_argument("--input")
    p.add_argument("--min-confidence", type=float, dest="min_confidence")
    p.add_argument("--output", help="canonical CSV of accepted records")
    p.add_argument("--rejects", help="side CSV row,reason")
    _add_common(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("train-spam", help="fit the naive Bayes spam model")
    p.add_argument("--input", help="labeled CSV label,text")
    p.add_argument("--model", help="model JSON output path")
    p.add_argument("--alpha", type=float)
    _add_common(p)
    p.set_defaults(handler=_cmd_train_spam)

    p = sub.add_parser("filter", help="drop records classified as spam")
    p.add_argument("--input")
    p.add_argument("--model")
    p.add_argument("--output")
    p.add_argument("--min-confidence", type=float, dest="min_confidence")
    _add_common(p)
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("index", help="ingest and build an index file")
    p.add_argument("--input")
    p.add_argument("--output", help="index file path (.epx)")
    p.add_argument("--granularity", choices=[g.value for g in Granularity])
    p.add_argument("--delta", type=float)
    p.add_argument("--min-confidence", type=float, dest="min_confidence")
    p.add_argument("--rejects")
    _add_common(p)
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("inspect", help="dump index container stats as JSON")
    p.add_argument("--index")
    p.add_argument("--verify", action="store_true", default=None,
                   help="decode and check every posting block too")
    _add_common(p)
    p.set_defaults(handler=_cmd_inspect)

    p = sub.add_parser("series", help="per-period measure series")
    p.add_argument("--index")
    p.add_argument("--entity")
    p.add_argument("--measure", choices=sorted(measures_mod.MEASURES))
    p.add_argument("--from", dest="from_")
    p.add_argument("--to")
    p.add_argument("--granularity")
    _add_output(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("topk", help="top-k periods by a measure")
    p.add_argument("--index")
    p.add_argument("--entity")
    p.add_argument("--measure", choices=sorted(measures_mod.MEASURES))
    p.add_argument("--from", dest="from_")
    p.add_argument("--to")
    p.add_argument("--k", type=int)
    p.add_argument("--direction", choices=["high", "low"])
    p.add_argument("--granularity")
    _add_output(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_topk)

    p = sub.add_parser("connectedness",
                       help="entity-to-entity connectedness over a window")
    p.add_argument("--index")
    p.add_argument("--entity")
    p.add_argument("--other", help="target entity, or comma list for a set")
    p.add_argument("--from", dest="from_")
    p.add_argument("--to")
    p.add_argument("--kind", choices=["direct", "indirect", "both"])
    p.add_argument("--include-self", action="store_true", default=None,
                   dest="include_self")
    p.add_argument("--granularity")
    _add_output(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_connectedness)

    p = sub.add_parser("network", help="k-Network for an entity and period")
    p.add_argument("--index")
    p.add_argument("--entity")
    p.add_argument("--period", help="YYYY, YYYY-MM or YYYY-MM-DD")
    p.add_argument("--k", type=int)
    p.add_argument("--variant", choices=["plain", "positive", "negative"])
    p.add_argument("--delta", type=float)
    p.add_argument("--min-support", type=int, dest="min_support")
    p.add_argument("--graph-output", dest="graph_output",
                   help="edge list CSV source,target,score,support")
    _add_output(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_network)

    p = sub.add_parser("generate", help="synthesize a corpus from a scenario")
    p.add_argument("--spec", help="scenario JSON")
    p.add_argument("--output", help="corpus CSV path")
    p.add_argument("--manifest", help="ground-truth manifest JSON path")
    _add_common(p)
    p.set_defaults(handler=_cmd_generate)

    keys = {key for sp in sub.choices.values() for key in _options(sp)}
    for sp in sub.choices.values():  # one config file may serve them all
        sp.set_defaults(config_keys=keys)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, args.subparser)
    except (ValueError, OSError, corpus_mod.IngestError,
            index_mod.IndexFormatError) as exc:
        _diag({"error": str(exc)})
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
