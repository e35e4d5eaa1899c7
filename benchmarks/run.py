"""qcog benchmark: seeded closed-loop workloads, one client, one process each.

    python3 benchmarks/run.py --workload survey-fit --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``qcog`` is imported from its
``src/`` directory, never from an installed copy.  The run

1. times set-up (importing ``qcog`` and generating the inputs) in several
   fresh interpreters and keeps the median;
2. runs one untimed warm-up op, then passes over the workload's inputs,
   op after op, for ``--seconds``, checking every op's output with the
   benchmark's own code;
3. prints a record (environment, input properties, raw figures, sample
   counts) as one JSON line, then, as the last line, the result object.

``--trace 0`` reports the end-to-end metrics.  Times are quiet-core
seconds: wall seconds corrected by a reference kernel timed around and
during each op and after each set-up (see ``speed.py``); the raw wall-clock
figures are in the record.  ``failed_frac`` is reported as ``ok_frac`` so
that no metric reads 0.
``--trace 1`` alternates untraced and traced runs of each input, reports the
per-layer metrics from the traced ops (per traced op, except ``*.failed``
and the ``setup.*`` and ``trace.*`` figures) and writes the spans to
``.bench_out/``.

The benchmark's own tests: ``python3 -m pytest benchmarks/selftest.py``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: steadier than sharing the cores, and no more than nproc.
BLAS_THREADS = 1
SETUP_REPEATS = 5
SETUP_CALIBRATION_S = 0.25
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
TAIL_FLOOR = 90.0  # ... and is never below this percentile


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_qcog() -> None:
    """Import ``qcog`` from this checkout's ``src/``."""
    if not (SRC / "qcog" / "__init__.py").is_file():
        raise SetupError(f"no qcog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcog
    if Path(qcog.__file__).resolve().parent != SRC / "qcog":
        raise SetupError(f"imported qcog from {qcog.__file__}, not {SRC}")


def make_workdir(tag: str) -> Path:
    path = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Import ``qcog`` and generate the inputs; return the wall seconds
    taken and the quiet-core seconds, from the reference kernel timed right
    after.  Only meaningful in a fresh interpreter."""
    start = time.perf_counter()
    import_qcog()
    import workloads
    workdir = make_workdir("probe")
    try:
        workloads.WORKLOADS[workload](seed, workdir, ROOT)
        wall = time.perf_counter() - start
    finally:
        remove_workdir(workdir)
    from speed import SpeedProbe, loop_kernel
    probe = SpeedProbe(loop_kernel)
    probe.reset()
    deadline = time.perf_counter() + SETUP_CALIBRATION_S
    while time.perf_counter() < deadline:
        probe.sample()
    return wall, wall * probe.scale()


def run_probe(workload: str, seed: int, *python_flags: str):
    proc = subprocess.run(
        [sys.executable, *python_flags, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, quiet-core) seconds of ``SETUP_REPEATS`` set-ups."""
    return [tuple(map(float, run_probe(workload, seed).stdout.split()[-2:]))
            for _ in range(SETUP_REPEATS)]


def import_profile(workload: str, seed: int) -> dict:
    """Cumulative import seconds of ``qcog`` and of the ``scipy.optimize``
    it pulls in, from one set-up probe run under ``-X importtime``."""
    cumulative = {}
    for line in run_probe(workload, seed, "-X", "importtime").stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {"qcog": cumulative.get("qcog", 0.0),
            "scipy.optimize": cumulative.get("scipy.optimize", 0.0)}


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The tail latency as (percentile, value, samples beyond it): the
    highest nearest-rank percentile with ``TAIL_BEYOND`` samples above it,
    but never below ``TAIL_FLOOR``.  A run of fewer than 100 ops keeps
    fewer than ten samples beyond p90; a lower percentile would fall on
    the boundary between input sizes and jump with the op count."""
    n = len(samples)
    rank = max(n - TAIL_BEYOND, math.ceil(TAIL_FLOOR / 100.0 * n), 1)
    return 100.0 * rank / n, sorted(samples)[rank - 1], n - rank


def run_one(wl, item, failures: list, tracer=None, probe=None) -> tuple:
    """Run and check one op; return its (wall, quiet-core) latency.  A
    raise, a wrong exit code or a failed output check appends to
    ``failures``.  With a tracer, the op runs inside one span and only its
    own time is counted.  Without a speed probe both latencies are wall
    time."""
    from workloads import CheckFailed
    if tracer is not None:
        from tracer import OP_SPAN
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        if probe is not None:
            out = probe.time(wl.run, item)
        elif tracer is not None:
            out = tracer.span(OP_SPAN, wl.run, item)
        else:
            out = wl.run(item)
    except Exception as exc:  # noqa: BLE001 - a failing op must not end the run
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    latency = (probe.wall, probe.quiet) if probe is not None else (wall, wall)
    if tracer is not None:
        tracer.uninstall()
    if error is None:
        try:
            wl.check(item, out)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 - malformed output fails the op
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        failures.append(error)
    return latency


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop over the workload's inputs, pass after pass, for
    ``seconds``.  Each op is recorded as (input index, wall latency,
    quiet-core latency).  Untraced, every op is timed by a speed probe.
    With a tracer, each input runs once untraced and once traced,
    alternating which goes first, both on wall time alone so that the
    probe's kernel lands in no span."""
    from speed import SpeedProbe
    ops = {"untraced": [], "traced": []}
    failures: list[str] = []
    items = wl.items
    probe = SpeedProbe() if tracer is None else None
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(items)
        if tracer is None:
            ops["untraced"].append((k, *run_one(wl, items[k], failures,
                                                probe=probe)))
        else:
            modes = (("untraced", "traced") if i % 2 == 0
                     else ("traced", "untraced"))
            for mode in modes:
                ops[mode].append((k, *run_one(
                    wl, items[k], failures,
                    tracer if mode == "traced" else None)))
        i += 1
    return {"ops": ops, "failures": failures}


def full_passes(ops: list[tuple], pool: int) -> list[tuple]:
    """The ops of the run's complete passes over the input pool, so that
    every input is timed equally often whatever the op count; all ops when
    the run did not complete one pass.  Ops are recorded in pool order."""
    whole = len(ops) - len(ops) % pool
    return ops[:whole] if whole else ops


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads_pinned": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[tuple[float, float]], ops: list[tuple],
               failed: int, pool: int) -> tuple:
    """End-to-end metrics from the quiet-core latencies of the complete
    passes; the wall-clock figures go to the record.  ``failed`` counts
    over all ``ops``."""
    ok_share = 1.0 - failed / len(ops)
    timed = full_passes(ops, pool)
    quiet = [op[2] for op in timed]
    wall = [op[1] for op in timed]
    pct, tail, beyond = tail_percentile(quiet)
    metrics = {
        "setup_s": metric(statistics.median(s[1] for s in setup), "s"),
        "throughput_ops_s": metric(ok_share * len(quiet) / sum(quiet), "1/s"),
        "latency_p50_s": metric(statistics.median(quiet), "s"),
        "latency_tail_s": metric(tail, "s"),
        "ok_frac": metric(ok_share, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {"inputs_measured": len({op[0] for op in ops}),
              "latency_samples": len(quiet),
              "latency_p50_by_input_s": {
                  k: statistics.median(op[2] for op in timed if op[0] == k)
                  for k in sorted({op[0] for op in timed})},
              "latency_tail_percentile": pct,
              "latency_tail_samples_beyond": beyond,
              "wall_throughput_ops_s": ok_share * len(wall) / sum(wall),
              "wall_latency_p50_s": statistics.median(wall),
              "wall_latency_tail_s": tail_percentile(wall)[1],
              "setup_wall_s": [s[0] for s in setup],
              "setup_quiet_s": [s[1] for s in setup]}
    return metrics, record


def per_layer(tracer, ops: dict, imports: dict, pool: int) -> tuple:
    from tracer import OP_SPAN, TARGETS
    totals = tracer.layer_totals()
    n_traced = max(1, len(ops["traced"]))
    metrics = {
        "setup.qcog_import_s": metric(imports["qcog"], "s"),
        "setup.scipy_optimize_import_share": metric(
            imports["scipy.optimize"] / imports["qcog"] if imports["qcog"] else 0.0,
            "ratio"),
    }
    for name, _, _ in TARGETS:
        row = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                "failed": 0})
        metrics[f"{name}.calls"] = metric(row["calls"] / n_traced, "1/op")
        metrics[f"{name}.busy_s"] = metric(row["busy_s"] / n_traced, "s/op")
        metrics[f"{name}.self_s"] = metric(row["self_s"] / n_traced, "s/op")
        metrics[f"{name}.failed"] = metric(row["failed"], "count")
    c = tracer.counters
    fitted = c["framefit.fitted_transitions"]
    metrics["framefit.iterations"] = metric(c["framefit.iterations"] / n_traced, "1/op")
    metrics["framefit.projected_share"] = metric(
        c["framefit.projected_transitions"] / fitted if fitted else 0.0, "ratio")
    metrics["sequential.cells"] = metric(c["sequential.cells"] / n_traced, "1/op")
    metrics["nosignal.local_updates"] = metric(
        c["nosignal.local_updates"] / n_traced, "1/op")
    metrics["nosignal.bytes_computed"] = metric(
        c["nosignal.bytes_computed"] / n_traced, "B/op")
    untraced, traced = (
        len(timed) / sum(op[1] for op in timed)
        for timed in (full_passes(ops[mode], pool)
                      for mode in ("untraced", "traced")))
    metrics["trace.overhead_frac"] = metric(1.0 - traced / untraced, "ratio")
    op = totals.get(OP_SPAN, {"busy_s": 0.0, "self_s": 0.0})
    uncovered = op["self_s"] / op["busy_s"] if op["busy_s"] else 0.0
    metrics["trace.uncovered_frac"] = metric(uncovered, "ratio")
    record = {"traced_ops": len(ops["traced"]),
              "untraced_ops": len(ops["untraced"]),
              "untraced_throughput_ops_s": untraced,
              "traced_throughput_ops_s": traced,
              "absent_functions": tracer.absent,
              "largest_self_s": sorted(
                  ((v["self_s"] / n_traced, k) for k, v in totals.items()
                   if k != OP_SPAN), reverse=True)[:5]}
    return metrics, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("survey-fit", "scan", "nosignal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(*setup_probe(args.workload, args.seed))
            return 0
        import_qcog()
        if args.trace:
            imports = import_profile(args.workload, args.seed)
        else:
            setup = measure_setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workdir = make_workdir(args.workload)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        try:  # warm-up, untimed and unchecked; a broken op fails when measured
            wl.run(wl.items[0])
        except Exception:  # noqa: BLE001
            pass
        tracer = Tracer() if args.trace else None
        result = measure(wl, args.seconds, tracer)
    finally:
        remove_workdir(workdir)

    ops = result["ops"]
    failures = result["failures"]
    attempted = len(ops["untraced"]) + len(ops["traced"])
    record = {"ops": attempted, "failed_frac": len(failures) / attempted}
    if args.trace:
        metrics, record["trace"] = per_layer(tracer, ops, imports,
                                             len(wl.items))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        record["trace"]["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics, latency_record = end_to_end(setup, ops["untraced"],
                                             len(failures), len(wl.items))
        record.update(latency_record)
    record.update(workload=args.workload, environment=environment(args.seed),
                  inputs=wl.properties(), failures=failures[:5])
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_frac':48s} {record['failed_frac']:.6g} ratio", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # before numpy is imported here or in the set-up probes this launches
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
