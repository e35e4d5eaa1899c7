"""Construct explicit orthonormal frames reproducing a question chain's statistics.

Implements the isolated-first-question scheme: the first question sits on
its own tensor factor of a product state, the second question's basis is
taken as the reference frame, and every later question is an orthonormal
frame whose expectations on the current density matrix equal the observed
answer distribution.  Majorization says when such a frame exists; the
Schur-Horn construction of Chan & Li (1983) and Dhillon et al. (2005)
builds it from n-1 plane rotations, with no search.  A target slightly out
of reach is first moved to the nearest reachable distribution by the
permutohedron projection of Negrinho & Martins (2014) and Lim & Wright
(2016).

Measuring a non-degenerate question in a frame leaves the state diagonal in
that frame, with the answers as its spectrum (Lueders rule), so a chain is
fitted from its data alone; :func:`replay` checks it on the full state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import (SurveyChain, _majorization_pair,
                          _require_transition, _slack)
from .hilbert import RESIDUAL_LIMIT, _tolerance
from .states import (DensityMatrix, ProbabilityVector, _check_type,
                     _question, lueders_update, outcome_probabilities,
                     square_root_embed)


class InfeasibleTargetError(ValueError):
    """Target distribution is not majorized by the current spectrum."""

    def __init__(self, message: str, slack: float):
        super().__init__(message)
        self.slack = slack


class FitError(RuntimeError):
    """A constructed frame or projection failed its post-check."""


@dataclass(frozen=True)
class TransitionFit:
    frame: np.ndarray
    residual: float


def _schur_horn_frame(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Real orthogonal W with sum_i lam_i W_ij^2 = t_j, for t majorized by lam.

    Targets are placed largest first.  Each one is matched by rotating the
    two pending vectors whose Rayleigh quotients bracket it and sit next to
    each other in sorted order; the rotated partner stays pending with the
    leftover quotient, which keeps the remaining problem majorized.  The
    rotations run on Python floats, each operation the one numpy would do
    elementwise, so W has numpy's bits.
    """
    mu, t = lam.tolist(), t.tolist()
    n = len(t)
    # sorted with reverse=True keeps ties in order: a stable argsort of -x
    order = sorted(range(n), key=mu.__getitem__, reverse=True)
    mu = [mu[k] for k in order]
    vecs = [[float(k == i) for k in range(n)] for i in order]
    columns = [None] * n
    targets = sorted(range(n), key=t.__getitem__, reverse=True)
    for j in targets[:-1]:
        t_j = t[j]
        i = min(max(sum(m > t_j for m in mu) - 1, 0), len(mu) - 2)
        mu_a, mu_b = mu[i], mu[i + 1]
        c2 = 1.0 if mu_a == mu_b else min(max(
            (t_j - mu_b) / (mu_a - mu_b), 0.0), 1.0)
        c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
        u_a, u_b = vecs[i], vecs[i + 1]
        columns[j] = [c * a + s * b for a, b in zip(u_a, u_b)]
        # convex form, not mu_a + mu_b - t: exact when c is 0 or 1, and the
        # quotient stays between its neighbours so mu stays sorted
        vecs[i:i + 2] = [[-s * a + c * b for a, b in zip(u_a, u_b)]]
        mu[i:i + 2] = [(1.0 - c2) * mu_a + c2 * mu_b]
    columns[targets[-1]] = vecs[0]
    return np.array(list(zip(*columns)))  # C order, as np.empty((n, n))


def _fit_row(lam: np.ndarray, target: ProbabilityVector, tol: float,
             what: str):
    """(W, achieved, squared residual, projection distance) for one answer
    row of a state with spectrum ``lam``, W in that state's eigenbasis: the
    one row step of :func:`fit_chain` and :func:`fit_transition`.  A row
    whose slack exceeds ``tol`` is infeasible (``what`` names it), one
    within it is first projected, and the frame's residual is checked.

    The projection, the frame and the achieved row sum_i lam_i W_ij^2
    (summed over i in order, as numpy sums axis 0) run on Python floats;
    the residual stays a numpy dot product, whose BLAS summation order a
    Python sum would not follow.  So every output has numpy's bits.
    """
    lams = lam.tolist()
    slack = _slack(lams, target.probs.tolist())
    if not slack <= tol:
        raise InfeasibleTargetError(
            f"{what} is infeasible: majorization slack {slack:.4g} "
            f"exceeds tol {tol}", slack)
    t, proj_dist = target.probs, 0.0
    if slack > 0:  # rows checked at entry or built here: no entry rule
        t, proj_dist = _projection(t, lam)
    w = _schur_horn_frame(lam, t)
    row_0, *rows = w.tolist()
    achieved = [lams[0] * (x * x) for x in row_0]
    for lam_i, row in zip(lams[1:], rows):
        achieved = [a + lam_i * (x * x) for a, x in zip(achieved, row)]
    achieved = np.array(achieved)
    r = achieved - t
    sse = float(r @ r)
    if not sse <= RESIDUAL_LIMIT:  # also rejects NaN
        raise FitError(f"constructed frame misses the target: squared "
                       f"residual {sse:.3g} exceeds {RESIDUAL_LIMIT}")
    return w, achieved, sse, proj_dist


def fit_transition(rho: DensityMatrix, target: ProbabilityVector) -> TransitionFit:
    """Construct a frame whose expectations on ``rho`` equal ``target``.

    Diagonalises ``rho`` with ``eigh`` and runs :func:`fit_chain`'s row step
    on its spectrum at tol 0, so nothing is projected:
    :class:`InfeasibleTargetError` when the target is not majorized by the
    spectrum, :class:`FitError` when the constructed frame misses the
    target by more than ``RESIDUAL_LIMIT``.  ValueError unless ``rho`` is a
    DensityMatrix and ``target`` a ProbabilityVector of its dimension.
    """
    _check_type(rho, DensityMatrix, "state")
    _check_type(target, ProbabilityVector, "target")
    if target.dim != rho.dim:
        raise ValueError("distributions have different dimensions")
    lam, v = np.linalg.eigh(rho.matrix)
    w, _, sse, _ = _fit_row(lam, target, 0.0,
                            f"target {target.probs.tolist()}")
    return TransitionFit(frame=v @ w, residual=sse)


def _pava_nonincreasing(x: list) -> list:
    """Least-squares nonincreasing fit to the floats ``x`` (pool adjacent
    violators)."""
    sums: list[float] = []
    counts: list[int] = []
    for value in x:
        sums.append(value)
        counts.append(1)
        while len(sums) > 1 and sums[-2] * counts[-1] < sums[-1] * counts[-2]:
            k, s = counts.pop(), sums.pop()
            counts[-1] += k
            sums[-1] += s
    return [s / k for s, k in zip(sums, counts) for _ in range(k)]


def project_to_majorized(target: ProbabilityVector, current,
                         ) -> tuple[ProbabilityVector, float, float]:
    """Nearest (Euclidean) distribution to ``target`` that is majorized by
    the 1-d array ``current``.  Returns (adjusted, max componentwise adjustment,
    Euclidean adjustment norm).

    The distributions majorized by ``current`` form its permutohedron; the
    projection onto it keeps the target's order and, in sorted coordinates,
    is the target minus an isotonic regression.  ``current`` is checked
    where it enters, by :func:`majorization_check`'s rule, and the result
    by its slack.  The regression, clip and normalisation run on Python
    floats; the normalising sum and the Euclidean norm stay numpy's, so
    every output has the bits of the numpy computation.
    """
    _check_type(target, ProbabilityVector, "target")
    c, t = _majorization_pair(current, target.probs)
    adjusted, max_adjustment = _projection(t, c)
    return (ProbabilityVector._unchecked(adjusted), max_adjustment,
            float(np.linalg.norm(adjusted - t)))


def _projection(target: np.ndarray, current: np.ndarray,
                ) -> tuple[np.ndarray, float]:
    # project_to_majorized's body on two checked rows, also fit_chain's
    # projection: (adjusted row, max componentwise adjustment)
    t = target.tolist()
    c = sorted(current.tolist(), reverse=True)
    # sorted with reverse=True keeps ties in order: a stable argsort of -t
    order = sorted(range(len(t)), key=t.__getitem__, reverse=True)
    ts = [t[k] for k in order]
    fit = _pava_nonincreasing([x - y for x, y in zip(ts, c)])
    clipped = [0.0] * len(t)
    for k, x, f in zip(order, ts, fit):
        y = x - f
        clipped[k] = y if y > 0.0 else 0.0  # np.clip's +0.0, also for -0.0
    total = float(np.add.reduce(clipped))  # numpy's pairwise summation
    adjusted = [y / total for y in clipped]
    slack = _slack(c, adjusted)
    if not slack <= 0.0:
        raise FitError(f"projection failed to reach the feasible set "
                       f"(slack {slack:.3g})")
    return np.array(adjusted), max(abs(a - x) for a, x in zip(adjusted, t))


@dataclass(frozen=True)
class FitResult:
    """Frames and diagnostics for one fitted chain.

    ``frames[0]`` models the base question (standard basis); later entries
    are constructed.  ``achieved`` covers every question of the chain,
    including the isolated first one when present.
    """

    label: str
    isolate_first: bool
    frames: tuple
    residuals: tuple
    achieved: tuple
    projection_distances: tuple


def fit_chain(chain: SurveyChain, isolate_first: bool, tol: float) -> FitResult:
    """Construct frames for every question after the base one.

    With ``isolate_first`` the first question is carried exactly on its own
    tensor factor and the second question's basis becomes the reference;
    otherwise the first question itself is the reference.

    Each answered question leaves the state diagonal in its frame with the
    achieved row as its spectrum, so the fit carries only (spectrum, frame),
    from (base row, identity); no eigensolver runs, the frames depend on the
    chain alone and reruns are bit-identical.

    ``tol`` bounds each row's majorization slack against that spectrum: a
    row beyond it raises :class:`InfeasibleTargetError`, one within it is
    first projected to the feasible set and the distance recorded.  A
    projected row is the next spectrum, so a chain can fail here although
    each pair of input rows is within ``tol`` in ``chain_feasibility``.  So
    can a tie: the row step reads a slack from the rows' floats, where Table
    2's exact 6 % is 0.06000000000000005 and exceeds a ``tol`` of 0.06.
    """
    _tolerance(tol)
    _require_transition(chain, isolate_first)
    base_index = 1 if isolate_first else 0
    questions = chain.questions
    lam = questions[base_index].probs.probs
    frames = [np.eye(chain.dim, dtype=np.complex128)]
    achieved = [q.probs for q in questions[:base_index + 1]]
    residuals: list[float] = []
    projections = [0.0]

    for j, q in enumerate(questions[base_index + 1:], start=base_index + 1):
        w, lam, sse, proj_dist = _fit_row(
            lam, q.probs, tol, f"transition Q{j}->Q{j + 1} of {chain.label!r}")
        frames.append(frames[-1] @ w)
        residuals.append(sse)
        projections.append(proj_dist)
        achieved.append(ProbabilityVector._unchecked(lam))

    return FitResult(
        label=chain.label,
        isolate_first=isolate_first,
        frames=tuple(frames),
        residuals=tuple(residuals),
        achieved=tuple(achieved),
        projection_distances=tuple(projections),
    )


def replay(fit: FitResult, chain: SurveyChain) -> list[ProbabilityVector]:
    """Recompute the sequential statistics of a fit from scratch.

    Uses only the state machinery: embed the base distribution, then for
    each frame read off the outcome probabilities and apply the measurement
    update, both on one question, checked once: its answers, one per column
    of the frame.
    The isolated first question, if any, is reproduced verbatim.
    """
    _check_type(fit, FitResult, "fit")
    _check_type(chain, SurveyChain, "chain")
    base = chain.questions[int(fit.isolate_first)]
    rho = DensityMatrix.from_pure(square_root_embed(base.probs))
    out = [chain.questions[0].probs] if fit.isolate_first else []
    for frame in fit.frames:
        answers = _question(np.hsplit(frame, chain.dim), chain.dim)
        out.append(outcome_probabilities(rho, answers))
        rho = lueders_update(rho, answers)
    return out


def fit_result_to_dict(fit: FitResult) -> dict:
    """JSON-ready view; frames as row-major (re, im) pairs."""
    _check_type(fit, FitResult, "fit")
    # a complex128 array's memory is its (re, im) float pairs
    frames = np.stack(fit.frames, dtype=np.complex128)
    return {
        "label": fit.label,
        "isolate_first": fit.isolate_first,
        "isolated_distribution": (fit.achieved[0].probs.tolist()
                                  if fit.isolate_first else None),
        "frames": frames.view(np.float64).reshape(*frames.shape, 2).tolist(),
        "residuals": list(fit.residuals),
        "achieved": [p.probs.tolist() for p in fit.achieved],
        "projection_distances": list(fit.projection_distances),
    }
