#!/usr/bin/env python3
"""entity_pulse benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload b480k-day --seed 7 --seconds 4 --trace 0

Run from the root of a checkout. The untraced run (``--trace 0``) measures
what a user waits for: set-up (generating the workload CSV), one ``epx
index`` subprocess, a fixed list of cold ``epx`` query subprocesses, and a
warm in-process query stream on the loaded index. The traced run
(``--trace 1``) times each layer from outside, with spans around calls into
the package's public functions, and writes the spans to ``.bench_out/``.

Both check every answer they time: the in-process answers against the
naive oracle in ``tests/oracle.py`` for a fixed sample, cold CLI output
byte for byte against the public formatters, planted events, and the
rejection counts ``epx index`` reports. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is non-zero when any op failed.

Load model: one process, closed loops with a single caller. CLI runs are
sequential subprocesses; the warm stream replays a fixed seeded op
sequence after one untimed warm-up pass, in whole passes, for at least
``--seconds`` in all and enough samples that each percentile has at least
ten beyond it (``MIN_SAMPLES`` per pool).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_SAMPLES = 1000  # samples behind a p99
CHECK_SCANS = 1     # warm scan ops checked against the oracle per run
CHECK_POINTS = 25   # warm point ops checked against the oracle per run
PARSE_SAMPLE = 2000
OVERHEAD_REPEATS = 5
SCALED_TIMES = ("setup_s", "query_cold_p50_ms", "query_scan_p50_us",
                "query_point_p50_us")
# Child processes see only the checkout's package. Workers and hash seed
# are pinned so the load model is the same on every machine.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                 ENTITY_PULSE_THREADS="2")
EPX = [sys.executable, "-m", "entity_pulse"]

sys.path[:0] = [str(SRC), str(HERE)]
try:
    import gate
    import queries
    import workloads
    from entity_pulse import corpus, index as index_mod
    from entity_pulse.timeline import Granularity, enumerate_periods, \
        period_of
    from spans import Tracer
    from speed import Speed
except ImportError as exc:
    sys.exit(f"benchmark: run from the root of a checkout ({exc})")


class Child(NamedTuple):
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Spawner:
    """Runs subprocesses through ``spawner.py``; see there for why."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=CHILD_ENV)

    def run(self, argv: list[str]) -> Child:
        out, err = self.work / "child.out", self.work / "child.err"
        self.proc.stdin.write(json.dumps(
            {"argv": argv, "out": str(out), "err": str(err)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        r = json.loads(reply)
        return Child(r["code"], r["wall_s"], r["rss_mb"],
                     out.read_text(encoding="utf-8"),
                     err.read_text(encoding="utf-8"))

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Ops:
    """Attempted and failed ops; failures are described on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED: {what}", file=sys.stderr)
        return ok


# -- shared steps --------------------------------------------------------------

def check_index_run(child: Child, prepared, ops: Ops) -> None:
    try:
        summary = json.loads(child.stdout)
    except json.JSONDecodeError:
        summary = {}
    injected = sum(prepared.rejected.values())
    ops.record(child.code == 0
               and summary.get("record_count") == len(prepared.clean)
               and summary.get("rejected_count") == injected,
               f"epx index: exit {child.code}, summary {summary}, expected "
               f"{len(prepared.clean)} records and {injected} rejected; "
               f"{child.stderr[-400:]}")


def check_answers(truth, index, checks, granularity: str, ops: Ops,
                  prepared) -> set:
    """Compare sampled in-process answers with the oracle, and look for the
    planted events; returns the ops whose answer was wrong."""
    def answer(op):
        try:
            return queries.canonical(op, queries.execute(index, op))
        except Exception as exc:  # a crash is a failed op, not a crash here
            return f"{type(exc).__name__}: {exc}"

    periods = gate.window_periods(queries.WINDOW_DT[0].date(),
                                  queries.WINDOW_DT[1].date(), granularity)
    bad = set()
    for op in checks:
        got, want = answer(op), truth.answer(op, periods)
        if not ops.record(gate.same(got, want),
                          f"oracle mismatch on {op}: got {got!r:.300} "
                          f"want {want!r:.300}"):
            bad.add(op)
    if prepared.burst is not None:
        entity, day = prepared.burst
        got = answer(("series", entity, "controversiality"))
        ops.record(isinstance(got, list)
                   and gate.burst_recovered(got, day, granularity),
                   f"burst of {entity} on {day} not the top period")
        a, b, day = prepared.signed_pair
        period = period_of(datetime.fromisoformat(day).replace(
            tzinfo=queries.UTC), Granularity.parse(granularity))
        got = answer(("signed", a, queries.K, "negative", period))
        ops.record(isinstance(got, list)
                   and gate.signed_pair_recovered(got, b),
                   f"signed pair {a}-{b} on {day} not first in the network")
    return bad


def cold_checks(cold) -> list[tuple]:
    """Ops behind the cold commands, plus the pair's connectedness."""
    ops = [c.op for c in cold]
    direct = cold[2].op
    ops.append(("indirect",) + direct[1:])
    return ops


# -- untraced run --------------------------------------------------------------

def run_untraced(wl, args, work: Path, spawner: Spawner):
    """Rounds of set-up, ``epx index`` and the cold queries, with slices of
    the warm stream between every two steps.

    On a shared VM, CPU speed flips between a fast and a slow state,
    about 1.5x apart, every second or so, and sometimes stays in one state
    for longer than a run. Each timed step is therefore sampled in every
    round and the warm stream in slices spread over the whole run. A
    median over samples from two such states jumps from one state to the
    other when the share of fast time crosses one half, while a mean moves
    in proportion to it. So throughput is total rows over total wall time,
    and a warm p50 is the mean, over the stream's passes (a fraction of a
    second each), of each pass's median; a p99 is taken over all samples.
    The speed probe runs after every step, and every time but the p99s is
    scaled by the run's ``Speed.factor()`` (see ``speed.py``); the values
    as measured go to the ``notes`` line.
    """
    ops = Ops()
    csv_path, epx_path = work / "input.csv", work / "index.epx"
    setup, index_walls, index_rss, cold_walls, cold_rss = [], [], [], [], []
    passes: list[dict[str, list[float]]] = []
    n_slices = 4 + 6 * (wl.rounds - 1)
    slice_s = args.seconds / n_slices
    slice_n = -(-MIN_SAMPLES // n_slices)

    speed = Speed()
    phases: dict[str, float] = {}
    mark = [time.perf_counter()]

    def lap(name: str) -> None:
        """Close a step: book its time to ``name``, then probe the speed."""
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + now - mark[0]
        speed.probe()
        mark[0] = time.perf_counter()
        phases["probe"] = phases.get("probe", 0.0) + mark[0] - now

    def warm_slice() -> None:
        passes.extend(warm_stream(index, plan, expected, bad, ops, slice_n,
                                  slice_s))
        lap("warm")

    speed.probe()
    for r in range(wl.rounds):
        start = time.perf_counter()
        prepared = workloads.prepare(wl, args.seed, args.scale)
        workloads.write_csv(prepared.lines, csv_path)
        setup.append(time.perf_counter() - start)
        lap("setup")
        if r:
            warm_slice()

        child = spawner.run(EPX + ["index", "--input", str(csv_path),
                                   "--output", str(epx_path),
                                   "--granularity", wl.granularity])
        lap("index")
        check_index_run(child, prepared, ops)
        index_walls.append(child.wall_s)
        index_rss.append(child.rss_mb)
        digest = hashlib.sha256(epx_path.read_bytes()).hexdigest() \
            if epx_path.exists() else None
        if r == 0:
            first_digest = digest
            file_bytes = epx_path.stat().st_size if digest else 0
            index = index_mod.load(epx_path)
            cold = queries.cold_commands(prepared, wl.granularity,
                                         str(epx_path), args.seed)
            truth = gate.Truth(gate.load_oracle(ROOT), prepared.clean,
                               wl.granularity)
            plan = queries.warm_plan(truth, prepared.roster, wl.granularity,
                                     args.seed)
            scans = [op for op in plan if op[0] in queries.SCAN_KINDS]
            points = [op for op in plan if op[0] not in queries.SCAN_KINDS]
            bad = check_answers(truth, index, cold_checks(cold)
                                + scans[:CHECK_SCANS] + points[:CHECK_POINTS],
                                wl.granularity, ops, prepared)
            del truth
            expected = warm_up(index, plan)
            lap("checks")
        else:
            ops.record(digest == first_digest,
                       f"round {r}: the index file differs from round 0")
            warm_slice()

        for cmd in cold:
            child = spawner.run(EPX + cmd.argv)
            lap("cold")
            cold_walls.append(child.wall_s)
            cold_rss.append(child.rss_mb)
            ops.record(child.code == 0 and child.stdout == cmd.render(index),
                       f"cold {cmd.name}: exit {child.code}, output differs "
                       f"from the formatters; {child.stderr[-400:]}")
            warm_slice()

    accepted = len(prepared.clean)
    lat = {cls: [x for p in passes for x in p[cls]]
           for cls in ("scan", "point")}
    p50 = {cls: statistics.fmean(pct(p[cls], 50) for p in passes)
           for cls in ("scan", "point")}
    raw = {
        "setup_s": (statistics.median(setup), "s"),
        "index_rows_per_s": (accepted * len(index_walls) / sum(index_walls),
                             "rows/s"),
        "index_peak_rss_mb": (statistics.median(index_rss), "MB"),
        "index_bytes_per_row": (file_bytes / accepted, "B/row"),
        "query_cold_p50_ms": (statistics.median(cold_walls) * 1e3, "ms"),
        "query_cold_peak_rss_mb": (max(cold_rss), "MB"),
        "query_scan_p50_us": (p50["scan"], "us"),
        "query_scan_p99_us": (pct(lat["scan"], 99), "us"),
        "query_point_p50_us": (p50["point"], "us"),
        "query_point_p99_us": (pct(lat["point"], 99), "us"),
    }
    # p99s stay as measured: the slowest moments of a run set them, and
    # the mean probe time does not track those.
    factor = speed.factor()
    metrics = {name: (value / factor if unit == "rows/s" else
                      value * factor if name in SCALED_TIMES else value,
                      unit)
               for name, (value, unit) in raw.items()}
    notes = {"rounds": wl.rounds, "warm_passes": len(passes),
             "scan_samples": len(lat["scan"]),
             "point_samples": len(lat["point"]),
             "cold_samples": len(cold_walls),
             "phases_s": {k: round(v, 2) for k, v in phases.items()},
             "speed_factor": round(factor, 4),
             "probes": len(speed.samples),
             "as_measured": {name: value for name, (value, unit)
                             in raw.items() if metrics[name][0] != value}}
    return ops, metrics, notes


def warm_up(index, plan) -> list:
    """One untimed pass; each op's answer, which every timed run must equal."""
    expected = []
    for op in plan:
        try:
            expected.append(queries.canonical(op, queries.execute(index, op)))
        except Exception as exc:  # counted as failed on every timed run
            expected.append(exc)
    return expected


def warm_stream(index, plan, expected, bad: set, ops: Ops, min_samples: int,
                seconds: float = 0.0, tracer=None
                ) -> list[dict[str, list[float]]]:
    """Replay ``plan`` in whole passes; per pass, latency in us per op
    class.

    The stream stops once ``seconds`` have passed and each group has
    ``min_samples``. Untraced, each op is timed on its own and the groups
    are the op classes (scan, point). Traced, each op runs inside a span
    named after the layer function it calls, and the groups are op kinds.
    """
    canonical, execute = queries.canonical, queries.execute
    out: list[dict[str, list[float]]] = []
    classes = ["scan" if op[0] in queries.SCAN_KINDS else "point"
               for op in plan]
    groups = classes if tracer is None else [op[0] for op in plan]
    per_pass = min(groups.count(g) for g in set(groups))
    passes = 0
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter_ns
    while time.perf_counter() < deadline or passes * per_pass < min_samples:
        passes += 1
        lat: dict[str, list[float]] = {"scan": [], "point": []}
        out.append(lat)
        for op, cls, want in zip(plan, classes, expected):
            try:
                if tracer is None:
                    start = clock()
                    got = execute(index, op)
                    lat[cls].append((clock() - start) / 1e3)
                else:
                    with tracer.span(queries.LAYER[op[0]]):
                        got = execute(index, op)
                ok = (op not in bad and not isinstance(want, Exception)
                      and canonical(op, got) == want)
            except Exception:  # a failed op; the stream goes on
                ok = False
            ops.record(ok, "" if ok else
                       f"warm op {op} failed or changed its answer")
            # Free the answer here, untimed: rebinding ``got`` inside the
            # next op's timing would charge it this answer's deallocation
            # (a 731-period series takes ~0.1 ms to free).
            got = None
    return out


# -- traced run ----------------------------------------------------------------

def run_traced(wl, args, work: Path, spawner: Spawner):
    tracer = Tracer()
    ops = Ops()
    m: dict[str, tuple[float, str]] = {}
    csv_path, epx_path = work / "input.csv", work / "index.epx"
    g = Granularity.parse(wl.granularity)

    with tracer.span("setup"):
        prepared = workloads.prepare(wl, args.seed, args.scale, tracer)
        with tracer.span("setup.write_csv"):
            workloads.write_csv(prepared.lines, csv_path)
    m["synth.generate_s"] = (tracer.total_s("synth.generate"), "s")
    m["synth.rows"] = (len(prepared.clean), "count")

    def probe(name: str, argv: list[str]) -> dict:
        with tracer.span(name):
            child = spawner.run([sys.executable, str(HERE / "probe.py"),
                                 *argv])
            result = {}
            if child.code == 0:
                result = json.loads(child.stdout)
                tracer.adopt(result["spans"])
            ops.record(child.code == 0,
                       f"{name}: exit {child.code}; {child.stderr[-400:]}")
        return result

    build = probe("probe.build", ["build", str(csv_path), wl.granularity,
                                  "--save", str(epx_path)])
    ingest_s = _span_s(build, "corpus.ingest")
    m["corpus.ingest_s"] = (ingest_s, "s")
    m["corpus.ingest_rows_per_s"] = (build.get("records", 0) / ingest_s
                                     if ingest_s else 0.0, "rows/s")
    m["corpus.ingest_rss_mb"] = (build.get("ingest_rss_mb", 0.0), "MB")
    for key in ("records", "users", "entities"):
        m[f"corpus.{key}"] = (build.get(key, 0), "count")
    rejected = build.get("rejected", {})
    m["corpus.rejected"] = (sum(rejected.values()), "count")
    for key, reason in workloads.REASONS.items():
        m[f"corpus.rejected.{key}"] = (rejected.get(reason, 0), "count")
        ops.record(rejected.get(reason, 0) == prepared.rejected[key],
                   f"rejected {key}: {rejected.get(reason, 0)}, injected "
                   f"{prepared.rejected[key]}")
    ops.record(build.get("records") == len(prepared.clean),
               f"accepted {build.get('records')} of {len(prepared.clean)}")
    m["index.build_s"] = (_span_s(build, "index.build"), "s")
    m["index.build_rss_mb"] = (build.get("build_rss_mb", 0.0), "MB")
    m["index.save_s"] = (_span_s(build, "index.save"), "s")
    m["index.file_bytes"] = (epx_path.stat().st_size
                             if epx_path.exists() else 0, "B")

    # Knob variants, each in a fresh process so peaks do not mix.
    serial = probe("probe.build_serial", ["build", str(csv_path),
                                          wl.granularity, "--max-workers",
                                          "1"])
    m["index.build_serial_s"] = (_span_s(serial, "index.build"), "s")
    m["index.build_serial_rss_mb"] = (serial.get("build_rss_mb", 0.0), "MB")
    approx = probe("probe.build_approx", ["build", str(csv_path), "year",
                                          "--approx"])
    m["index.build_approx_s"] = (_span_s(approx, "index.build"), "s")
    m["index.build_approx_rss_mb"] = (approx.get("build_rss_mb", 0.0), "MB")
    load = probe("probe.load", ["load", str(epx_path)])
    m["index.load_s"] = (_span_s(load, "index.load"), "s")
    m["index.load_rss_mb"] = (load.get("load_rss_mb", 0.0), "MB")

    with tracer.span("cli.startup"):
        startup = [spawner.run(EPX + ["--help"]).wall_s
                   for _ in range(5)]
    m["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    with tracer.span("warm.load_index"):
        index = index_mod.load(epx_path)
    cold = queries.cold_commands(prepared, wl.granularity, str(epx_path),
                                 args.seed)
    for cmd in cold:
        with tracer.span(f"cli.{cmd.name}"):
            child = spawner.run(EPX + cmd.argv)
        m[f"cli.{cmd.name}_ms"] = (child.wall_s * 1e3, "ms")
        ops.record(child.code == 0 and child.stdout == cmd.render(index),
                   f"cold {cmd.name}: exit {child.code}, output differs")

    periods = index.periods()
    fanouts = [len(p.cooccur) for e in index.entities for period in periods
               if (p := index.posting(e, period)) is not None]
    m["index.periods"] = (len(periods), "count")
    m["index.postings"] = (index.posting_count(), "count")
    m["index.cooccur_pairs"] = (sum(fanouts), "count")
    m["index.cooccur_fanout_max"] = (max(fanouts, default=0), "count")

    step = max(1, len(prepared.lines) // PARSE_SAMPLE)
    with tracer.span("corpus.parse_sample"):
        for row, line in enumerate(prepared.lines[::step], 1):
            with tracer.span("corpus.parse_record"):
                corpus.parse_record(line, row)
    m["corpus.parse_record_p50_us"] = (
        statistics.median(tracer.durations_us("corpus.parse_record")), "us")
    with tracer.span("timeline.sample"):
        for _ in range(200):
            with tracer.span("timeline.enumerate_periods"):
                window = enumerate_periods(*queries.WINDOW_DT, g)
    m["timeline.periods_in_window"] = (len(window), "count")
    m["timeline.enumerate_periods_us"] = (statistics.median(
        tracer.durations_us("timeline.enumerate_periods")), "us")

    truth = gate.Truth(gate.load_oracle(ROOT), prepared.clean,
                       wl.granularity)
    plan = queries.warm_plan(truth, prepared.roster, wl.granularity,
                             args.seed)
    points = [op for op in plan if op[0] not in queries.SCAN_KINDS]
    bad = check_answers(truth, index, cold_checks(cold) + points[:5],
                        wl.granularity, ops, prepared)
    del truth

    expected = warm_up(index, plan)
    with tracer.span("warm.traced"):
        warm_stream(index, plan, expected, bad, ops, MIN_SAMPLES,
                    tracer=tracer)
    for kind, layer in queries.LAYER.items():
        values = tracer.durations_us(layer)
        m[f"{layer}_p50_us"] = (pct(values, 50), "us")
        m[f"{layer}_p99_us"] = (pct(values, 99), "us")
    m["trace.overhead_ratio"] = (overhead_ratio(index, plan), "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl")
    return ops, m, {"spans": len(tracer.spans)}


def _span_s(result: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in result.get("spans", ())
               if s["name"] == name) / 1e9


def overhead_ratio(index, plan) -> float:
    """Median over ``OVERHEAD_REPEATS`` of (traced pass time / untraced pass
    time)."""
    ratios = []
    for _ in range(OVERHEAD_REPEATS):
        start = time.perf_counter()
        for op in plan:
            queries.execute(index, op)
        plain = time.perf_counter() - start
        tracer = Tracer()
        start = time.perf_counter()
        for op in plan:
            with tracer.span(queries.LAYER[op[0]]):
                queries.execute(index, op)
        ratios.append((time.perf_counter() - start) / plain)
    return statistics.median(ratios)


# -- entry point ---------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="minimum length of the timed warm stream")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's text rate; 2 gives "
                             "ROADMAP's full 480k-row B480k")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "entity_pulse" / "__init__.py",
                           ROOT / "tests" / "oracle.py") if not p.is_file()]
    if missing:
        print(f"benchmark: run from a checkout; missing {missing}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_run" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_untraced
        with Spawner(work) as spawner:
            ops, metrics, notes = runner(wl, args, work, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ratio = ops.failed / ops.attempted
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:16} {name:40} {value:16.6g} {unit}")
    if not args.trace:
        print(f"{wl.name:16} {'failed_ops_ratio':40} {ratio:16.6g} ratio")
    print(f"{wl.name:16} {'notes':40} {json.dumps(notes)}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
