"""Command-line entry point.

The parsers are built once, at import, from the ``_SUBCOMMANDS`` table;
``main`` hands the words after a subcommand's name to that subcommand's
parser.
Exit codes: 0 success, 1 error (bad input or usage, an unreadable input
or unwritable output path, a failed post-check, a failed CSV writer
process, or out of memory), 2 analysis ran and found a violation (so
scripts can branch on findings).
``nosignal-demo`` alone draws random numbers, seeded by ``--seed`` only;
every other subcommand depends on its input files alone.

Stdout is written once, by ``main``, after the analysis has run: either
the report as strict JSON (``--json``) or its text lines.  An error
leaves stdout empty, writes one ``error:`` line to stderr and exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import signal
import sys
import warnings
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import feasibility, framefit, hilbert, ingest, nosignal, sequential

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2


def render_json(payload) -> str:
    """``payload`` as the strict JSON text of ``json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)``, a numpy array as its ``tolist()`` and
    a dataclass as the dict of its fields.  Dict keys must be strings; NaN
    and infinities raise ValueError, and any other type TypeError."""
    return _json_text(payload, "\n")


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(
            f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


@functools.cache
def _field_keys(cls) -> tuple:
    # a dataclass type's (field name, key text) pairs in key order, cached
    return tuple((name, encode_basestring_ascii(name)) for name in
                 sorted(f.name for f in dataclasses.fields(cls)))


def _json_text(obj, newline: str) -> str:
    cls = type(obj)  # the commonest exact types first
    if cls is float:
        return _float_text(obj)
    if obj is None:
        return "null"
    if cls is bool:
        return "true" if obj else "false"
    inner = newline + "  "
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        try:  # a list of floats at C speed: the bulk of a fit
            texts = isinstance(obj[0], float) and [*map(float.__repr__, obj)]
        except TypeError:  # a float, then something else
            texts = None
        if not texts:
            texts = [_json_text(item, inner) for item in obj]
        elif "nan" in texts or "inf" in texts or "-inf" in texts:
            texts = [_float_text(x) for x in obj]  # raises for the first
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    # any other type by isinstance, as json does; no class is two of these
    if isinstance(obj, int):  # ints and int enums
        return int.__repr__(obj)
    if isinstance(obj, str):  # str and str enums
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        members = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            members.append((encode_basestring_ascii(key), value))
    elif isinstance(obj, float):  # numpy floats
        return _float_text(obj)
    elif isinstance(obj, (list, tuple)):  # namedtuples
        return _json_text(list(obj), newline)
    elif isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), newline)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        members = [(key, getattr(obj, name)) for name, key in _field_keys(cls)]
    else:
        raise TypeError(
            f"Object of type {cls.__name__} is not JSON serializable")
    if not members:
        return "{}"
    texts = [key + ": " + _json_text(value, inner) for key, value in members]
    return "{" + inner + ("," + inner).join(texts) + newline + "}"


# Each handler is a generator: it runs the analysis, yields (JSON payload,
# finding) first, then its text lines, which main draws only in text mode.
def cmd_check_classical(args):
    a = ingest.load_survey(args.sample_a)
    b = ingest.load_survey(args.sample_b)
    check = feasibility.classical_consistency_check(
        a.questions[-1], b.questions[-1], args.tol)
    yield check, check.violation is not None
    yield f"final question: {a.label!r} vs {b.label!r}"
    yield f"  support-side difference: {check.support_difference:.6g}"
    yield f"  oppose-side difference:  {check.oppose_difference:.6g}"
    if check.polarity_warning:
        yield ("  note: opposite polarities compared via the "
               "'not opposing = supporting' reading")
    if check.violation is not None:
        yield (f"  VIOLATION of total probability: {check.violation:.6g} "
               f"> tol {args.tol}")
    else:
        yield f"  consistent within tol {args.tol}"


def cmd_check_order(args):
    pair = ingest.load_order_pair(args.pair_file)
    # ingest has run the pair rule, so the check runs on the checked rows
    report = feasibility._order_effects(
        pair["ordering_1"], pair["ordering_2"], args.tol)
    yield ({"label": pair["label"], "question_names": pair["question_names"],
            "entries": report.entries}, report.any_flagged)
    yield pair["label"]
    for e in report.entries:
        name = pair["question_names"][e.question_index]
        mark = "FLAGGED" if e.flagged else "ok"
        yield (f"  {name}: {e.marginal_first_ordering} vs "
               f"{e.marginal_second_ordering} "
               f"(diff {e.difference:.6g}) [{mark}]")


def _feasibility_lines(report: feasibility.FeasibilityReport):
    for t in report.transitions:
        tag = "exempt" if t.exempt else ("ok" if t.feasible_at_tol else "INFEASIBLE")
        yield (f"  Q{t.from_index + 1}->Q{t.to_index + 1}: "
               f"max_increase {t.max_increase:.6g}, "
               f"min_decrease {t.min_decrease:.6g}, "
               f"majorization slack {t.majorization_slack:.6g} [{tag}]")


def cmd_check_contraction(args):
    chain = ingest.load_survey(args.survey)
    report = feasibility.contraction_check(chain)
    yield report, any(t.max_increase > 0 or t.min_decrease > 0
                      for t in report.transitions)
    yield f"contraction report for {chain.label!r}"
    yield from _feasibility_lines(report)


def cmd_check_feasibility(args):
    chain = ingest.load_survey(args.survey)
    report = feasibility.chain_feasibility(chain, args.isolate_first, args.tol)
    yield report, not report.all_feasible
    mode = "isolated first question" if args.isolate_first else "full chain"
    yield f"feasibility report for {chain.label!r} ({mode}, tol {args.tol})"
    yield from _feasibility_lines(report)


def cmd_fit_chain(args):
    chain = ingest.load_survey(args.survey)
    fit = framefit.fit_chain(chain, args.isolate_first, args.tol)
    yield framefit.fit_result_to_dict(fit), False
    yield f"fitted {len(fit.frames)} frames for {chain.label!r}"
    for i, p in enumerate(fit.achieved):
        yield f"  Q{i + 1} achieved: {np.round(p.probs, 9).tolist()}"
    yield f"  residuals: {[f'{r:.3g}' for r in fit.residuals]}"
    if max(fit.projection_distances) > 0:
        yield (f"  projection distances: "
               f"{[f'{d:.3g}' for d in fit.projection_distances]}")


_SCAN_HEADER = b"p,q,alpha,p_f_b,delta,in_region\n"


def _scan_csv_rows(scan, grid_n: int, rows: range):
    # the text of grid rows ``rows`` (a step-1 range), lazily, one str per
    # grid row.  The scan is row-major (p outer, q inner) and the centers
    # serve as both p and q.  repr gives the shortest round-trip form;
    # .tolist() keeps numpy 2 from printing np.float64(...).  alpha is
    # finite and >= +0 (so np.unique merges no -0.0 or NaN) and symmetric
    # in (p, q) bit for bit: each distinct value in the rows, about a third
    # of the cells over the whole grid, is formatted once
    centers = list(map(repr, sequential.grid_centers(grid_n).tolist()))
    cells = slice(rows.start * grid_n, rows.stop * grid_n)
    alpha, p_f_b, delta, flags = (scan.alpha[cells], scan.p_f_b[cells],
                                  scan.delta[cells], scan.in_region[cells])
    values, index = np.unique(alpha, return_inverse=True)
    alphas = np.array(list(map(repr, values.tolist())), dtype=object)[index]
    for i, p in enumerate(centers[rows.start:rows.stop]):
        row = slice(i * grid_n, (i + 1) * grid_n)
        yield "".join(map(",".join, zip(
            repeat(p), centers, alphas[row].tolist(),
            map(repr, p_f_b[row].tolist()), map(repr, delta[row].tolist()),
            map(("0\n", "1\n").__getitem__, flags[row].tolist()))))


@contextlib.contextmanager
def _rows_from_child(scan, grid_n: int, rows: range):
    # the read end of a pipe that carries the text of grid rows ``rows``,
    # formatted by a forked child on a second CPU, or None when there is no
    # second CPU, no fork, or the fork fails.  On leaving, the pipe is
    # closed and the child reaped, killed first if the block raised; a
    # child that failed raises OSError
    pid = None
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns of a fork beside threads (numpy's BLAS
                # pool); the child formats text and calls no BLAS
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(read_fd)
        if pid == 0:  # the child touches no file object, nor stdout
            status = 1
            try:
                os.close(read_fd)  # so a parent gone leaves no reader
                view = memoryview(
                    "".join(_scan_csv_rows(scan, grid_n, rows)).encode())
                while view:
                    view = view[os.write(write_fd, view):]
                status = 0
            finally:  # whatever was raised, even KeyboardInterrupt
                os._exit(status)
        os.close(write_fd)
    if pid is None:
        yield None
        return
    try:
        yield read_fd
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        status = os.waitpid(pid, 0)[1]
    if status:
        raise OSError(f"the process writing grid rows {rows.start}.."
                      f"{rows.stop - 1} failed "
                      f"(exit code {os.waitstatus_to_exitcode(status)})")


def cmd_conjunction_scan(args):
    grid = args.grid
    scan = sequential.interference_region_scan(grid)
    if args.out:
        # opened before the fork, so an unwritable path starts no child,
        # and written to only after it, so the child inherits no buffered
        # bytes.  This process writes the header and grid rows [0, split),
        # one write per grid row, then copies the child's rows
        with open(args.out, "wb") as fh, \
                _rows_from_child(scan, grid, range(grid // 2, grid)) as pipe:
            split = grid if pipe is None else grid // 2
            fh.write(_SCAN_HEADER)
            for text in _scan_csv_rows(scan, grid, range(split)):
                fh.write(text.encode())
            while pipe is not None and (chunk := os.read(pipe, 1 << 16)):
                fh.write(chunk)
    n_cells = scan.in_region.size
    n_in = int(scan.in_region.sum())
    yield ({"grid": grid, "cells": n_cells, "cells_in_region": n_in,
            "out": args.out}, False)
    yield (f"{grid}x{grid} scan: {n_in}/{n_cells} cells "
           f"with P(F) > P^F(B) > P(B)")
    if args.out:
        yield f"wrote {args.out}"


def cmd_spin_demo(args):
    direct, after = sequential.spin_order_demo()
    yield {"p_up_direct": direct, "p_up_after_y": after}, False
    yield f"P(X=UP) with no intervening measurement: {direct}"
    yield f"P(X=UP) after a y-spin measurement:      {after}"


def cmd_nosignal_demo(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        state = nosignal.random_entangled_state(rng)
        series_a = nosignal.random_local_series(rng, args.steps)
        series_b = nosignal.random_local_series(rng, args.steps)
        # np.maximum keeps a NaN deviation for the verdict; max() drops it
        dev = nosignal.no_signalling_check(state, series_a, series_b)
        worst = float(np.maximum(worst, dev))
    yield ({"trials": args.trials, "steps": args.steps,
            "max_fifth_marginal_deviation": worst},
           not worst < hilbert._NO_SIGNALLING_TOL)
    yield (f"{args.trials} random entangled states, {args.steps}-step "
           f"local series pairs")
    yield f"max fifth-marginal deviation: {worst:.3g}"


def _tolerance(text: str) -> float:
    try:  # --tol by the library's one tolerance rule
        return hilbert._tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int):
    # an integer flag's type; argparse names the flag in each usage error,
    # and reads int()'s ValueError as "invalid integer value"
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}: {text!r}")
        return value
    return integer


_TOL = ("--tol", {"type": _tolerance, "required": True})
_CHAIN = (("survey", {}), _TOL, ("--isolate-first", {"action": "store_true"}))

# (name, handler, help, arguments); every subcommand also takes --json
_SUBCOMMANDS = (
    ("check-classical", cmd_check_classical,
     "total-probability check of the two samples' final question",
     (("sample_a", {}), ("sample_b", {}), _TOL)),
    ("check-order", cmd_check_order,
     "flag marginals that depend on question order",
     (("pair_file", {}), _TOL)),
    ("check-contraction", cmd_check_contraction,
     "max/min contraction report for a question chain", (("survey", {}),)),
    ("check-feasibility", cmd_check_feasibility,
     "majorization feasibility of a question chain", _CHAIN),
    ("fit-chain", cmd_fit_chain,
     "construct orthonormal frames reproducing the chain", _CHAIN),
    ("conjunction-scan", cmd_conjunction_scan,
     "scan the (p, q) square for the interference region",
     (("--grid", {"type": _int_at_least(2), "default": 101}),
      ("--out", {"help": "write the grid as CSV"}))),
    ("spin-demo", cmd_spin_demo, "spin-1/2 question-order demonstration", ()),
    ("nosignal-demo", cmd_nosignal_demo,
     "random-state no-signalling deviation statistics",
     (("--trials", {"type": _int_at_least(1), "default": 100}),
      ("--steps", {"type": _int_at_least(1), "default": 4}),
      ("--seed", {"type": _int_at_least(0), "default": 0}))),
)


def _make_parser() -> tuple[argparse.ArgumentParser, dict]:
    # the top-level parser, and each subcommand's parser by name
    parser = argparse.ArgumentParser(
        prog="qcog",
        description="Quantum-probability analysis of sequential survey data")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, func, help_text, arguments in _SUBCOMMANDS:
        p = subparsers[name] = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.set_defaults(func=func)
    return parser, subparsers


# built once: parse_args leaves the parsers unchanged
_PARSER, _SUBPARSERS = _make_parser()


def _parse_args(argv: list) -> argparse.Namespace:
    # the top-level parser would hand every word after a subcommand's name
    # to that subcommand's parser, so that parser reads them directly; the
    # top-level one reads only an argv that does not start with a name
    # (none, --help, a typo)
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    return sub.parse_args(argv[1:]) if sub else _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; 2 means
        # "violation found" here, so a usage error becomes 1
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        report = args.func(args)
        payload, finding = next(report)
        print(render_json(payload) if args.json else "\n".join(report))
    except (ValueError, OSError, MemoryError, framefit.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_FINDING if finding else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
