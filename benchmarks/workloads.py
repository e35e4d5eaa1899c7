"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Each workload class builds its inputs from a seed alone (``__init__``), runs
one op on one input through ``qcog`` (``run``, the only timed part), and
verifies the op's output with the benchmark's own numpy code (``check``,
which raises :class:`CheckFailed`).  ``properties`` summarises the inputs
the ops actually used, so a later claim of the form "helps only inputs with
X" can cite a measured share.

Why these three: together they cover the paper's three kinds of
computation, and each leaves a different set of ``qcog`` modules idle.

- ``survey-fit`` is dominated by ``framefit`` (multi-start frame fitting);
  ``sequential`` and ``nosignal`` are never called.
- ``scan`` is dominated by ``sequential`` and the CLI's CSV writer, with
  ``states`` used as many tiny 2x2 updates; ``framefit`` and ``nosignal``
  are bypassed and peak memory grows with the grid size squared.
- ``nosignal`` uses ``states`` at the other extreme (a few 243x243
  validations) plus the ``nosignal`` factor contraction; ``framefit``,
  ``sequential`` and ``cli`` are bypassed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

from qcog import cli, nosignal, sequential
from qcog.states import DensityMatrix

# Fitting tolerance for every chain: the value at which the bundled Table 2
# is feasible (its Q2->Q3 majorization slack is 0.06).
FIT_TOL = "0.07"
TABLE1_LAST_ROW = (0.45, 0.17, 0.38)
TABLE2_Q3_PROJECTION = 0.06
POLL_RESPONDENTS = 1000
CHAINS_SEED = 0

# SHA-256 of ``conjunction-scan --grid G --out FILE`` as written by the seed
# code; the CSV is promised to stay byte-identical.
SCAN_DIGESTS = {
    101: "aed858875f42f2d60957f35b091432d416ba3a9f44c69fa68bf865849a4ffc14",
    201: "0d0cf159ce277ebeaca20e29f196614f1677ccc9630dad3ede8bf07f366e7152",
    301: "781ac890b8018c4724fb6e2df1a4556b56293fdf7aaa677942b4a15e7a1d13de",
}
SCAN_HEADER = b"p,q,alpha,p_f_b,delta,in_region"
SCAN_GRIDS = (101, 201, 301)
SCAN_CELLS_PER_OP = 256

SERIES_LENGTHS = (2, 4, 8)
NOSIGNAL_DIMS = (3, 3, 3, 3, 3)


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def balanced_blocks(rng: np.random.Generator, values, n_blocks: int) -> list:
    """``n_blocks`` shuffled copies of ``values`` back to back, so every run
    sees each value equally often whatever the seed."""
    out = []
    for _ in range(n_blocks):
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"{what}: output is not JSON ({exc})") from exc


# --------------------------------------------------------------- survey-fit

def _lueders(rho: np.ndarray, frame: np.ndarray) -> np.ndarray:
    cols = [frame[:, k:k + 1] for k in range(frame.shape[1])]
    return sum(c @ (c.conj().T @ rho @ c) @ c.conj().T for c in cols)


def _outcomes(rho: np.ndarray, frame: np.ndarray) -> np.ndarray:
    return np.real(np.diag(frame.conj().T @ rho @ frame))


def _majorization_slack(prev: np.ndarray, nxt: np.ndarray) -> float:
    c = np.cumsum(np.sort(prev)[::-1])
    t = np.cumsum(np.sort(nxt)[::-1])
    return float(max(0.0, np.max(t - c)))


def generate_chain(rng: np.random.Generator, polled: bool) -> list[list[float]]:
    """Five 3-answer rows in percent: an isolated first question, a base
    distribution, then three rows read off a square-root-embedded base state
    through Haar-random frames with the measurement update between them.

    A polled chain reports each row as a poll of ``POLL_RESPONDENTS`` people
    would, in integer percent; the sampling and rounding noise pushes some
    transitions just outside the feasible set, so ``fit-chain`` has to
    project them.  Chains with a transition beyond ``FIT_TOL`` are drawn
    again, so every op is expected to succeed."""
    def spread_out():
        while True:
            p = rng.dirichlet([4.0, 4.0, 4.0])
            if p.min() >= 0.05:
                return p

    while True:
        rows = [spread_out(), spread_out()]
        amp = np.sqrt(rows[1]).astype(np.complex128)
        rho = _lueders(np.outer(amp, amp.conj()), np.eye(3, dtype=np.complex128))
        for _ in range(3):
            u = haar_unitary(rng, 3)
            rows.append(_outcomes(rho, u))
            rho = _lueders(rho, u)
        if not polled:
            return [(100.0 * r).tolist() for r in rows]
        rows = [np.round(100.0 * rng.multinomial(POLL_RESPONDENTS, r)
                         / POLL_RESPONDENTS) for r in rows]
        shares = [r / r.sum() for r in rows]
        if all(_majorization_slack(a, b) <= float(FIT_TOL)
               for a, b in zip(shares[1:], shares[2:])):
            return [r.tolist() for r in rows]


def _write_survey(path: Path, label: str, rows) -> None:
    questions = [{"text": f"question {i + 1}", "yes": r[0], "unsure": r[1],
                  "no": r[2], "polarity": "neutral"}
                 for i, r in enumerate(rows)]
    path.write_text(json.dumps({"sample_label": label, "questions": questions}))


class SurveyFit:
    """One op analyses one survey file: ``check-contraction``,
    ``check-feasibility --isolate-first`` and ``fit-chain --isolate-first``,
    all with ``--json``."""

    name = "survey-fit"

    def __init__(self, seed: int, workdir: Path, qcog_root: Path):
        # Table 1, a polled chain, Table 2 and an exact chain: a pass is
        # short, so every input recurs several times in a run.  Fitting cost
        # is heavy-tailed across chains (polled: 2.3k to 7.8k least-squares
        # evaluations over 40 generator seeds; exact: fit iterations 81 to
        # 144 over 30, and one in ten chains 1.4x the median time), and a
        # 30-second run fits only about 15 chains, too few to average that
        # out.  So both chains come from one fixed generator, every run
        # carries the same inputs, and the seed orders the pool.
        rng = np.random.default_rng(CHAINS_SEED)
        data = qcog_root / "src" / "qcog" / "data"
        items = []
        for table, kind in (("table1", "polled"), ("table2", "exact")):
            path = workdir / f"{table}.json"
            shutil.copyfile(data / f"{table}.json", path)
            items.append({"path": path, "kind": table})
            path = workdir / f"{kind}.json"
            _write_survey(path, kind, generate_chain(rng, kind == "polled"))
            items.append({"path": path, "kind": kind})
        self.items = [items[i]
                      for i in np.random.default_rng(seed).permutation(len(items))]
        for item in self.items:
            doc = json.loads(item["path"].read_text())
            rows = np.array([[q["yes"], q["unsure"], q["no"]]
                             for q in doc["questions"]], dtype=float)
            item["rows"] = rows / rows.sum(axis=1, keepdims=True)
        self._used = Counter()
        self._fitted = 0
        self._projected = 0

    def run(self, item) -> dict:
        path = str(item["path"])
        return {
            "contraction": _call_cli(["check-contraction", path, "--json"]),
            "feasibility": _call_cli(["check-feasibility", path, "--isolate-first",
                                      "--tol", FIT_TOL, "--json"]),
            "fit": _call_cli(["fit-chain", path, "--isolate-first",
                              "--tol", FIT_TOL, "--json"]),
        }

    def check(self, item, out: dict) -> None:
        rows = item["rows"]
        n = len(rows)
        tol = float(FIT_TOL)

        rc, text = out["contraction"]
        report = _parse_json(text, "check-contraction")["transitions"]
        _require(len(report) == n - 1, "check-contraction: wrong transition count")
        for i, t in enumerate(report):
            _require(abs(t["max_increase"]
                         - max(0.0, rows[i + 1].max() - rows[i].max())) <= 1e-12
                     and abs(t["min_decrease"]
                             - max(0.0, rows[i].min() - rows[i + 1].min())) <= 1e-12,
                     f"check-contraction: wrong figures for transition {i + 1}")
        violated = any(t["max_increase"] > 0 or t["min_decrease"] > 0
                       for t in report)
        _require(rc == (2 if violated else 0), f"check-contraction exit {rc}")

        rc, text = out["feasibility"]
        report = _parse_json(text, "check-feasibility")["transitions"]
        _require(len(report) == n - 1, "check-feasibility: wrong transition count")
        for i, t in enumerate(report):
            slack = _majorization_slack(rows[i], rows[i + 1])
            _require(abs(t["majorization_slack"] - slack) <= 1e-12,
                     f"check-feasibility: wrong slack for transition {i + 1}")
            _require(t["feasible_at_tol"] == (i == 0 or slack <= tol),
                     f"check-feasibility: wrong verdict for transition {i + 1}")
        feasible = all(t["feasible_at_tol"] for t in report)
        _require(rc == (0 if feasible else 2), f"check-feasibility exit {rc}")

        rc, text = out["fit"]
        _require(rc == 0, f"fit-chain exit {rc}")
        fit = _parse_json(text, "fit-chain")
        frames = [np.array(f, dtype=float) for f in fit["frames"]]
        frames = [f[..., 0] + 1j * f[..., 1] for f in frames]
        achieved = np.array(fit["achieved"], dtype=float)
        dists = fit["projection_distances"]
        _require(len(frames) == n - 1 and achieved.shape == (n, 3)
                 and len(dists) == n - 1 and len(fit["residuals"]) == n - 2,
                 "fit-chain: wrong number of frames, rows or diagnostics")
        _require(max(fit["residuals"]) <= 1e-18,
                 f"fit-chain: residual {max(fit['residuals'])} > 1e-18")
        for u in frames:
            _require(np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-10,
                     "fit-chain: frame is not unitary to 1e-10")
        _require(np.max(np.abs(achieved[0] - rows[0])) <= 1e-6,
                 "fit-chain: isolated first row differs from the input")
        amp = np.sqrt(rows[1]).astype(np.complex128)
        rho = np.outer(amp, amp.conj())
        for k, u in enumerate(frames, start=1):
            _require(np.max(np.abs(_outcomes(rho, u) - achieved[k])) <= 1e-6,
                     f"fit-chain: reported row {k + 1} does not follow "
                     f"from the frames")
            rho = _lueders(rho, u)
            if dists[k - 1] == 0.0:
                _require(np.max(np.abs(achieved[k] - rows[k])) <= 1e-6,
                         f"fit-chain: row {k + 1} unprojected but not "
                         f"reproduced")
        if item["kind"] == "table1":
            _require(np.max(np.abs(achieved[-1] - TABLE1_LAST_ROW)) <= 1e-6,
                     "fit-chain: table1 does not replay to [0.45, 0.17, 0.38]")
        if item["kind"] == "table2":
            _require(abs(dists[1] - TABLE2_Q3_PROJECTION) <= 5e-5,
                     f"fit-chain: table2 Q3 projection distance {dists[1]}")
        self._used[item["kind"]] += 1
        self._fitted += n - 2
        self._projected += sum(d > 0.0 for d in dists[1:])

    def properties(self) -> dict:
        return {"chains_in_pool": len(self.items),
                "chains_by_kind": dict(self._used),
                "fitted_transitions": self._fitted,
                "projected_transitions": self._projected,
                "projected_share": (self._projected / self._fitted
                                    if self._fitted else None)}


# --------------------------------------------------------------------- scan

class Scan:
    """One op is one two-question study: ``conjunction-scan --grid G --out
    FILE`` and the state pipeline on 256 seeded cells of the same grid."""

    name = "scan"
    pool_blocks = 2

    def __init__(self, seed: int, workdir: Path, qcog_root: Path):
        rng = np.random.default_rng(seed)
        self.csv = workdir / "scan.csv"
        self.items = []
        for g in balanced_blocks(rng, SCAN_GRIDS, self.pool_blocks):
            cells = rng.integers(0, g, size=(SCAN_CELLS_PER_OP, 2))
            self.items.append({"grid": g, "cells": cells,
                               "centers": (cells + 0.5) / g})
        self._grids = Counter()

    def run(self, item) -> dict:
        rc, _ = _call_cli(["conjunction-scan", "--grid", str(item["grid"]),
                           "--out", str(self.csv)])
        pfb = [sequential.sequential_probability_via_states(float(p), float(q))
               for p, q in item["centers"]]
        return {"rc": rc, "via_states": pfb}

    def check(self, item, out: dict) -> None:
        g = item["grid"]
        _require(out["rc"] == 0, f"conjunction-scan exit {out['rc']}")
        data = self.csv.read_bytes()
        if g in SCAN_DIGESTS:
            _require(hashlib.sha256(data).hexdigest() == SCAN_DIGESTS[g],
                     f"conjunction-scan --grid {g}: CSV digest changed")
        lines = data.split(b"\n")
        _require(lines[0] == SCAN_HEADER, "conjunction-scan: wrong CSV header")
        _require(lines[-1] == b"" and len(lines) == g * g + 2,
                 f"conjunction-scan: expected {g * g} rows")
        for (i, j), (p, q), via in zip(item["cells"], item["centers"],
                                       out["via_states"]):
            fields = lines[1 + i * g + j].split(b",")
            _require(len(fields) == 6, "conjunction-scan: malformed row")
            cp, cq, _, pfb, delta, region = (float(f) for f in fields)
            _require(cp == p and cq == q,
                     f"conjunction-scan: cell ({i}, {j}) is not at its center")
            _require(abs(pfb - via) <= 1e-9,
                     f"cell ({i}, {j}): closed form {pfb} vs states {via}")
            _require(abs(delta - (pfb - q)) <= 1e-12,
                     f"cell ({i}, {j}): delta is not p_f_b - q")
            _require(region == float(p > pfb > q),
                     f"cell ({i}, {j}): wrong in_region flag")
        self._grids[g] += 1

    def properties(self) -> dict:
        return {"ops_by_grid": {str(g): n for g, n in sorted(self._grids.items())},
                "state_pipeline_cells_per_op": SCAN_CELLS_PER_OP,
                "scan_cells_per_op": {str(g): g * g for g in SCAN_GRIDS}}


# ----------------------------------------------------------------- nosignal

def fifth_marginal_of(matrix: np.ndarray) -> np.ndarray:
    rest = int(np.prod(NOSIGNAL_DIMS[:-1]))
    d = NOSIGNAL_DIMS[-1]
    t = np.asarray(matrix).reshape(rest, d, rest, d)
    return np.real(np.einsum("aiaj->ij", t).diagonal())


class NoSignal:
    """One op builds a 243-dimensional ``DensityMatrix`` from a Gaussian pure
    state and two ``LocalSeries`` of Haar frames on factors 0-3, then runs
    ``no_signalling_check``."""

    name = "nosignal"
    pool_blocks = 1

    def __init__(self, seed: int, workdir: Path, qcog_root: Path):
        rng = np.random.default_rng(seed)
        total = int(np.prod(NOSIGNAL_DIMS))
        pairs = [(a, b) for a in SERIES_LENGTHS for b in SERIES_LENGTHS]
        self.items = []
        for la, lb in balanced_blocks(rng, pairs, self.pool_blocks):
            psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
            psi /= np.linalg.norm(psi)
            steps = [tuple((int(rng.integers(0, len(NOSIGNAL_DIMS) - 1)),
                            haar_unitary(rng, NOSIGNAL_DIMS[0]))
                           for _ in range(n)) for n in (la, lb)]
            marginal = np.abs(psi.reshape(-1, NOSIGNAL_DIMS[-1])) ** 2
            self.items.append({"psi": psi, "series": steps,
                               "marginal": marginal.sum(axis=0)})
        self._lengths = Counter()

    def run(self, item) -> dict:
        psi = item["psi"]
        state = DensityMatrix(np.outer(psi, psi.conj()))
        series = [nosignal.LocalSeries(s) for s in item["series"]]
        deviation = nosignal.no_signalling_check(state, *series)
        return {"state": state, "series": series[0], "deviation": deviation}

    def check(self, item, out: dict) -> None:
        dev = out["deviation"]
        _require(0.0 <= dev < 1e-10, f"no-signalling deviation {dev}")
        after = nosignal.apply_series(out["state"], out["series"])
        marginal = fifth_marginal_of(after.matrix)
        _require(np.max(np.abs(marginal - item["marginal"])) < 1e-10,
                 "fifth marginal moved under a local series")
        self._lengths.update(len(s) for s in item["series"])

    def properties(self) -> dict:
        return {"series_length_histogram":
                {str(n): c for n, c in sorted(self._lengths.items())},
                "ops_in_pool": len(self.items)}


WORKLOADS = {w.name: w for w in (SurveyFit, Scan, NoSignal)}
