"""Command-line entry point.

The parser is built once, at import, from the ``_SUBCOMMANDS`` table.
Exit codes: 0 success, 1 error (bad input or usage, an unreadable input
or unwritable output path, or a failed post-check), 2 analysis ran and
found a violation (so scripts can branch on findings).
``nosignal-demo`` alone draws random numbers, seeded by ``--seed`` only;
every other subcommand depends on its input files alone.  ``--json``
output is strict JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import islice

import numpy as np

from . import feasibility, framefit, ingest, nosignal, sequential
from .hilbert import _NO_SIGNALLING_TOL

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return dataclasses.asdict(obj)


def _emit_json(payload) -> None:
    print(json.dumps(payload, default=_json_default, indent=2, sort_keys=True,
                     allow_nan=False))


def cmd_check_classical(args) -> int:
    a = ingest.load_survey(args.sample_a)
    b = ingest.load_survey(args.sample_b)
    check = feasibility.classical_consistency_check(
        a.questions[-1], b.questions[-1], args.tol)
    if args.json:
        _emit_json(check)
    else:
        print(f"final question: {a.label!r} vs {b.label!r}")
        print(f"  support-side difference: {check.support_difference:.6g}")
        print(f"  oppose-side difference:  {check.oppose_difference:.6g}")
        if check.polarity_warning:
            print("  note: opposite polarities compared via the "
                  "'not opposing = supporting' reading")
        if check.violation is not None:
            print(f"  VIOLATION of total probability: {check.violation:.6g} "
                  f"> tol {args.tol}")
        else:
            print(f"  consistent within tol {args.tol}")
    return EXIT_FINDING if check.violation is not None else EXIT_OK


def cmd_check_order(args) -> int:
    pair = ingest.load_order_pair(args.pair_file)
    report = feasibility.order_effect_check(
        pair["ordering_1"], pair["ordering_2"], args.tol)
    if args.json:
        _emit_json({"label": pair["label"],
                    "question_names": pair["question_names"],
                    "entries": report.entries})
    else:
        print(pair["label"])
        for e in report.entries:
            name = pair["question_names"][e.question_index]
            mark = "FLAGGED" if e.flagged else "ok"
            print(f"  {name}: {e.marginal_first_ordering.tolist()} vs "
                  f"{e.marginal_second_ordering.tolist()} "
                  f"(diff {e.difference:.6g}) [{mark}]")
    return EXIT_FINDING if report.any_flagged else EXIT_OK


def _print_feasibility(report: feasibility.FeasibilityReport) -> None:
    for t in report.transitions:
        tag = "exempt" if t.exempt else ("ok" if t.feasible_at_tol else "INFEASIBLE")
        print(f"  Q{t.from_index + 1}->Q{t.to_index + 1}: "
              f"max_increase {t.max_increase:.6g}, "
              f"min_decrease {t.min_decrease:.6g}, "
              f"majorization slack {t.majorization_slack:.6g} [{tag}]")


def cmd_check_contraction(args) -> int:
    chain = ingest.load_survey(args.survey)
    report = feasibility.contraction_check(chain)
    if args.json:
        _emit_json(report)
    else:
        print(f"contraction report for {chain.label!r}")
        _print_feasibility(report)
    violated = any(t.max_increase > 0 or t.min_decrease > 0
                   for t in report.transitions)
    return EXIT_FINDING if violated else EXIT_OK


def cmd_check_feasibility(args) -> int:
    chain = ingest.load_survey(args.survey)
    report = feasibility.chain_feasibility(chain, args.isolate_first, args.tol)
    if args.json:
        _emit_json(report)
    else:
        mode = "isolated first question" if args.isolate_first else "full chain"
        print(f"feasibility report for {chain.label!r} ({mode}, tol {args.tol})")
        _print_feasibility(report)
    return EXIT_OK if report.all_feasible else EXIT_FINDING


def cmd_fit_chain(args) -> int:
    chain = ingest.load_survey(args.survey)
    fit = framefit.fit_chain(chain, args.isolate_first, args.tol)
    if args.json:
        _emit_json(framefit.fit_result_to_dict(fit))
    else:
        print(f"fitted {len(fit.frames)} frames for {chain.label!r}")
        for i, p in enumerate(fit.achieved):
            print(f"  Q{i + 1} achieved: {np.round(p.probs, 9).tolist()}")
        print(f"  residuals: {[f'{r:.3g}' for r in fit.residuals]}")
        if max(fit.projection_distances) > 0:
            print(f"  projection distances: "
                  f"{[f'{d:.3g}' for d in fit.projection_distances]}")
    return EXIT_OK


def _scan_csv_lines(scan, grid_n: int):
    # repr gives the shortest round-trip form; .tolist() keeps numpy 2 from
    # printing np.float64(...).  The scan is row-major (p outer, q inner), so
    # each p takes the next grid_n cells and the centers serve as both p and q.
    centers = [repr(c) for c in sequential.grid_centers(grid_n).tolist()]
    cells = zip(map(repr, scan.alpha.tolist()), map(repr, scan.p_f_b.tolist()),
                map(repr, scan.delta.tolist()), scan.in_region.tolist())
    yield "p,q,alpha,p_f_b,delta,in_region\n"
    for p in centers:
        for q, (alpha, pfb, delta, flag) in zip(centers, islice(cells, grid_n)):
            yield f"{p},{q},{alpha},{pfb},{delta},{flag:d}\n"


def cmd_conjunction_scan(args) -> int:
    scan = sequential.interference_region_scan(args.grid)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.writelines(_scan_csv_lines(scan, args.grid))
    n_cells = scan.in_region.size
    n_in = int(scan.in_region.sum())
    if args.json:
        _emit_json({"grid": args.grid, "cells": n_cells,
                    "cells_in_region": n_in, "out": args.out})
    else:
        print(f"{args.grid}x{args.grid} scan: {n_in}/{n_cells} cells "
              f"with P(F) > P^F(B) > P(B)")
        if args.out:
            print(f"wrote {args.out}")
    return EXIT_OK


def cmd_spin_demo(args) -> int:
    direct, after = sequential.spin_order_demo()
    if args.json:
        _emit_json({"p_up_direct": direct, "p_up_after_y": after})
    else:
        print(f"P(X=UP) with no intervening measurement: {direct}")
        print(f"P(X=UP) after a y-spin measurement:      {after}")
    return EXIT_OK


def cmd_nosignal_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        state = nosignal.random_entangled_state(rng)
        series_a = nosignal.random_local_series(rng, args.steps)
        series_b = nosignal.random_local_series(rng, args.steps)
        worst = max(worst, nosignal.no_signalling_check(state, series_a, series_b))
    if args.json:
        _emit_json({"trials": args.trials, "steps": args.steps,
                    "max_fifth_marginal_deviation": worst})
    else:
        print(f"{args.trials} random entangled states, {args.steps}-step "
              f"local series pairs")
        print(f"max fifth-marginal deviation: {worst:.3g}")
    return EXIT_OK if worst < _NO_SIGNALLING_TOL else EXIT_FINDING


def _tolerance(text: str) -> float:
    if not 0.0 <= float(text) < np.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and >= 0: {text!r}")
    return float(text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return int(text)


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
     (("--grid", {"type": int, "default": 101}),
      ("--out", {"help": "write the grid as CSV"}))),
    ("spin-demo", cmd_spin_demo, "spin-1/2 question-order demonstration", ()),
    ("nosignal-demo", cmd_nosignal_demo,
     "random-state no-signalling deviation statistics",
     (("--trials", {"type": _positive_int, "default": 100}),
      ("--steps", {"type": _positive_int, "default": 4}),
      ("--seed", {"type": int, "default": 0}))),
)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcog",
        description="Quantum-probability analysis of sequential survey data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.set_defaults(func=func)
    return parser


# built once: parse_args leaves the parser unchanged
_PARSER = _make_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; 2 means
        # "violation found" here, so a usage error becomes 1
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, framefit.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
