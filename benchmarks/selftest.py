"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/selftest.py

Tiny runs of every workload must report every metric that ``BENCHMARK.json``
names, with its unit; corrupted op outputs must be counted as failed.
"""
from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    return workloads.SurveyFit(3, tmp_path_factory.mktemp("survey"), ROOT)


@pytest.fixture(scope="module")
def table1(survey):
    return next(item for item in survey.items if item["kind"] == "table1")


@pytest.fixture(scope="module")
def table1_output(survey, table1):
    return survey.run(table1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_survey_output_passes_its_check(survey, table1, table1_output):
    survey.check(table1, table1_output)


@pytest.mark.parametrize("command, corrupt", [
    ("fit", lambda d: d["achieved"][3].__setitem__(0, d["achieved"][3][0] + 1e-4)),
    ("fit", lambda d: d["frames"][2][0][0].__setitem__(0, 0.5)),
    ("fit", lambda d: d["residuals"].__setitem__(1, 1e-12)),
    ("contraction", lambda d: d["transitions"][2].__setitem__("min_decrease", 0.5)),
    ("feasibility", lambda d: d["transitions"][1].__setitem__("feasible_at_tol", False)),
])
def test_corrupted_survey_output_fails(survey, table1, table1_output, command,
                                      corrupt):
    rc, text = table1_output[command]
    doc = json.loads(text)
    corrupt(doc)
    bad = dict(table1_output, **{command: (rc, json.dumps(doc))})
    with pytest.raises(workloads.CheckFailed):
        survey.check(table1, bad)


def test_unexpected_exit_code_fails(survey, table1, table1_output):
    rc, text = table1_output["fit"]
    with pytest.raises(workloads.CheckFailed, match="exit"):
        survey.check(table1, dict(table1_output, fit=(1, text)))


def test_failed_checks_count_in_failed_frac(survey, table1, table1_output):
    doc = json.loads(table1_output["fit"][1])
    doc["achieved"][-1] = [0.5, 0.2, 0.3]
    bad = dict(table1_output, fit=(0, json.dumps(doc)))

    class Corrupted:
        items = [table1]
        run = staticmethod(lambda item: bad)
        check = staticmethod(survey.check)

    result = run.measure(Corrupted(), seconds=0.05)
    n = len(result["ops"]["untraced"])
    assert n >= 1 and len(result["failures"]) == n
    metrics, _ = run.end_to_end([(0.5, 0.5)], result["ops"]["untraced"], n, 1)
    assert metrics["ok_frac"]["value"] == 0.0


def test_raising_op_counts_as_failed():
    class Raising:
        items = [None]
        run = staticmethod(lambda item: 1 / 0)
        check = staticmethod(lambda item, out: None)

    result = run.measure(Raising(), seconds=0.01)
    assert len(result["failures"]) == len(result["ops"]["untraced"]) >= 1


def test_latencies_come_from_complete_passes():
    # two inputs, two passes and a partial third: the pool's mean op is 2 s
    ops = [(0, 1.0, 1.0), (1, 3.0, 3.0), (0, 1.0, 1.0), (1, 3.0, 3.0),
           (0, 1.0, 1.0)]
    assert run.full_passes(ops, 2) == ops[:4]
    assert run.full_passes(ops[:1], 2) == ops[:1]
    metrics, record = run.end_to_end([(0.5, 0.4)], ops, 1, 2)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(0.8 * 0.5)
    assert metrics["setup_s"]["value"] == 0.4
    assert record["latency_samples"] == 4


def test_speed_probe_takes_its_kernel_out_of_the_op():
    probe = speed.SpeedProbe()
    wall_clock = time.perf_counter()
    assert probe.time(time.sleep, 0.2) is None
    wall_clock = time.perf_counter() - wall_clock
    kernel = wall_clock - probe.wall
    assert probe.wall == pytest.approx(0.2, abs=0.02)
    assert kernel > 0.0  # it ran before, during and after the op
    assert probe.quiet == pytest.approx(probe.wall * probe.scale())
    with pytest.raises(ZeroDivisionError):
        probe.time(lambda: 1 / 0)
    assert probe.wall >= 0.0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def scan_item(grid, cells):
    cells = np.array(cells)
    return {"grid": grid, "cells": cells, "centers": (cells + 0.5) / grid}


def test_wrong_csv_row_fails(tmp_path):
    scan = workloads.Scan(0, tmp_path, ROOT)
    item = scan_item(101, [[3, 4], [50, 60]])
    out = scan.run(item)
    scan.check(item, out)
    lines = scan.csv.read_bytes().split(b"\n")

    lines[7] += b"0"  # cell (0, 6), not sampled: "0" -> "00" parses the same
    scan.csv.write_bytes(b"\n".join(lines))
    with pytest.raises(workloads.CheckFailed, match="digest"):
        scan.check(item, out)

    # an unpinned grid is caught by the sampled cells and the row count
    small = scan_item(11, [[2, 9]])
    out = scan.run(small)
    scan.check(small, out)
    rows = scan.csv.read_bytes().split(b"\n")
    wrong = list(rows)
    fields = wrong[1 + 2 * 11 + 9].split(b",")
    fields[3] = repr(float(fields[3]) + 1e-6).encode()
    wrong[1 + 2 * 11 + 9] = b",".join(fields)
    scan.csv.write_bytes(b"\n".join(wrong))
    with pytest.raises(workloads.CheckFailed, match="closed form"):
        scan.check(small, out)
    scan.csv.write_bytes(b"\n".join(rows[:-2] + [b""]))
    with pytest.raises(workloads.CheckFailed, match="rows"):
        scan.check(small, out)


def test_nosignal_checks_deviation_and_marginal(tmp_path):
    wl = workloads.NoSignal(0, tmp_path, ROOT)
    item = wl.items[0]
    out = wl.run(item)
    wl.check(item, out)
    with pytest.raises(workloads.CheckFailed, match="deviation"):
        wl.check(item, dict(out, deviation=1e-6))
    moved = dict(item, marginal=item["marginal"] + [1e-6, -1e-6, 0.0])
    with pytest.raises(workloads.CheckFailed, match="marginal"):
        wl.check(moved, out)


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(workloads.SurveyFit(5, tmp_path / name, ROOT))
    assert all(np.array_equal(x["rows"], y["rows"])
               for x, y in zip(runs[0].items, runs[1].items))
    n1, n2 = (workloads.NoSignal(5, tmp_path, ROOT) for _ in range(2))
    assert all(np.array_equal(x["psi"], y["psi"]) for x, y in zip(n1.items, n2.items))


def test_tail_percentile_keeps_ten_samples_beyond_and_stays_above_p90():
    assert run.tail_percentile(list(range(200))[::-1]) == (95.0, 189, 10)
    assert run.tail_percentile(list(range(100))) == (90.0, 89, 10)
    assert run.tail_percentile(list(range(37))) == (
        pytest.approx(3400 / 37), 33, 3)
    assert run.tail_percentile([7.0]) == (100.0, 7.0, 0)


def test_tracer_patches_every_binding_and_restores():
    import qcog.framefit as framefit
    import qcog.states as states
    original = states.lueders_update
    rho = states.DensityMatrix(np.eye(2) / 2)
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert framefit.lueders_update is states.lueders_update is not original
        t.span(tracer_mod.OP_SPAN, states.lueders_update, rho, [np.eye(2)])
    finally:
        t.uninstall()
    assert framefit.lueders_update is original and states.lueders_update is original
    totals = t.layer_totals()
    assert totals["states.lueders_update"]["calls"] == 1
    assert totals["states.DensityMatrix.validate"]["calls"] == 1
    op = totals[tracer_mod.OP_SPAN]
    assert op["self_s"] <= op["busy_s"]
    parents = {s[0]: s[4] for s in t.spans}
    names = {s[0]: s[1] for s in t.spans}
    validate = next(i for i, n in names.items() if n == "states.DensityMatrix.validate")
    assert names[parents[parents[validate]]] == tracer_mod.OP_SPAN


def test_absent_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (
        ("framefit.removed", "qcog.framefit", "no_such_function"),))
    t = tracer_mod.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["framefit.removed"]
