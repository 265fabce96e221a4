"""Self-tests for the benchmark harness.

    python -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from datetime import date
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from entity_pulse import corpus, index as index_mod, relations  # noqa: E402
from entity_pulse.timeline import Granularity  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402

SMALL = {"b480k-month": 0.1, "b480k-day": 0.1, "wide-dirty-year": 0.02}


def _prepare(name: str, seed: int = 7) -> workloads.Prepared:
    return workloads.prepare(workloads.WORKLOADS[name], seed, SMALL[name])


@pytest.fixture(scope="module")
def month_case():
    prepared = _prepare("b480k-month")
    built = index_mod.build(corpus.ingest(iter(prepared.lines))[0],
                            Granularity.MONTH, 2.0)
    truth = gate.Truth(gate.load_oracle(ROOT), prepared.clean, "month")
    return prepared, built, truth


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_files(name, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    workloads.write_csv(_prepare(name).lines, a)
    workloads.write_csv(_prepare(name).lines, b)
    assert a.read_bytes() == b.read_bytes()
    workloads.write_csv(_prepare(name, seed=8).lines, b)
    assert a.read_bytes() != b.read_bytes()


def test_injector_produces_declared_counts():
    prepared = _prepare("wide-dirty-year")
    injected = sum(prepared.rejected.values())
    assert injected == round(len(prepared.clean) * workloads.BAD_ROW_SHARE)
    assert all(n > 0 for n in prepared.rejected.values())
    corp, stats = corpus.ingest(iter(prepared.lines))
    assert stats.record_count == len(prepared.clean)
    seen = Counter(r.reason for r in corp.rejections)
    assert seen == Counter({workloads.REASONS[k]: n
                            for k, n in prepared.rejected.items()})
    # The accepted rows are exactly the generator's rows.
    assert {r.text_id for r in corp.records()} == \
        {line.split(",", 1)[0] for line in prepared.clean}


def test_every_entity_id_needs_escapes():
    prepared = _prepare("wide-dirty-year")
    assert all(set(e) & set("%:;,") for e in prepared.roster)


def test_gate_accepts_the_program_and_flags_a_perturbed_answer(
        month_case, monkeypatch):
    prepared, built, truth = month_case
    plan = queries.warm_plan(truth, prepared.roster, "month", 7)
    checks = [op for op in plan if op[0] == "direct"][:10] + plan[:1]
    ops = run.Ops()
    assert run.check_answers(truth, built, checks, "month", ops,
                             prepared) == set()
    assert ops.failed == 0 and ops.attempted == len(checks) + 2

    real = relations.direct_connectedness

    def off_by_a_little(*args):
        value = real(*args)
        return None if value is None else value + 1e-9

    monkeypatch.setattr(relations, "direct_connectedness", off_by_a_little)
    ops = run.Ops()
    bad = run.check_answers(truth, built, checks, "month", ops, prepared)
    directs = [op for op in checks if op[0] == "direct"
               and truth.answer(op, []) is not None]
    assert directs and bad == set(directs)
    assert ops.failed == len(directs)


def test_gate_flags_a_lost_burst(month_case):
    prepared, built, _ = month_case
    entity, day = prepared.burst
    op = ("series", entity, "controversiality")
    answer = queries.canonical(op, queries.execute(built, op))
    assert gate.burst_recovered(answer, day, "month")
    burst_month = gate.period_key(date.fromisoformat(day), "month")
    lost = [(start, 0.0, 1) if start == burst_month else (start, v, support)
            for start, v, support in answer]
    assert not gate.burst_recovered(lost, day, "month")


def test_cold_output_must_match_byte_for_byte(month_case, tmp_path):
    prepared, built, _ = month_case
    path = tmp_path / "i.epx"
    index_mod.save(built, path)
    for cmd in queries.cold_commands(prepared, "month", str(path), 7):
        out = subprocess.run(run.EPX + cmd.argv, capture_output=True,
                             text=True, env=run.CHILD_ENV, check=True).stdout
        assert out and out == cmd.render(built)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.with_self_time()
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["self_ns"] == (outer["end"] - outer["start"]) - (
        inner["end"] - inner["start"])


def test_speed_factor_leaves_out_the_tails():
    speed = Speed()
    speed.samples = [2 * REFERENCE_S] * 8 + [REFERENCE_S / 100, 50.0]
    assert speed.factor() == pytest.approx(0.5)
    speed.probe()
    assert len(speed.samples) == 14 and min(speed.samples) > 0


@pytest.mark.parametrize("name,trace", [("b480k-day", "0"),
                                        ("wide-dirty-year", "1")])
def test_smoke_run_end_to_end(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.1", "--trace", trace,
         "--scale", str(SMALL[name])],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[key]}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "b480k-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
