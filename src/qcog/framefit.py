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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasibility import SurveyChain, chain_feasibility, majorization_check
from .hilbert import frame_projectors
from .states import (DensityMatrix, ProbabilityVector, lueders_update,
                     outcome_probabilities, square_root_embed)

# Largest accepted sum of squared differences between a constructed frame's
# expectations and its target; the construction reaches ~1e-31.
RESIDUAL_LIMIT = 1e-18


class InfeasibleTargetError(ValueError):
    """Target distribution is not majorized by the current spectrum."""

    def __init__(self, message: str, slack: float, transition=None):
        super().__init__(message)
        self.slack = slack
        self.transition = transition


class FitError(RuntimeError):
    """A constructed frame or projection failed its post-check."""


@dataclass(frozen=True)
class TransitionFit:
    frame: np.ndarray
    residual: float


def _eigenbasis(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # diagonal states keep their own ordering; otherwise fall back to eigh
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) < 1e-13:
        return np.diag(m).real.copy(), np.eye(m.shape[0], dtype=np.complex128)
    lam, v = np.linalg.eigh(m)
    return lam, v


def _schur_horn_frame(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Real orthogonal W with sum_i lam_i W_ij^2 = t_j, for t majorized by lam.

    Targets are placed largest first.  Each one is matched by rotating the
    two pending vectors whose Rayleigh quotients bracket it and sit next to
    each other in sorted order; the rotated partner stays pending with the
    leftover quotient, which keeps the remaining problem majorized.
    """
    n = t.size
    order = np.argsort(-lam, kind="stable")
    mu = list(lam[order])
    vecs = list(np.eye(n)[order])
    w = np.empty((n, n))
    targets = np.argsort(-t, kind="stable")
    for j in targets[:-1]:
        i = min(max(sum(m > t[j] for m in mu) - 1, 0), len(mu) - 2)
        mu_a, mu_b = mu[i], mu[i + 1]
        c2 = 1.0 if mu_a == mu_b else min(max(
            (t[j] - mu_b) / (mu_a - mu_b), 0.0), 1.0)
        c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
        u_a, u_b = vecs[i], vecs[i + 1]
        w[:, j] = c * u_a + s * u_b
        # convex form, not mu_a + mu_b - t: exact when c is 0 or 1, and the
        # quotient stays between its neighbours so mu stays sorted
        vecs[i:i + 2] = [-s * u_a + c * u_b]
        mu[i:i + 2] = [(1.0 - c2) * mu_a + c2 * mu_b]
    w[:, targets[-1]] = vecs[0]
    return w


def fit_transition(rho: DensityMatrix, target: ProbabilityVector) -> TransitionFit:
    """Construct a frame whose expectations on ``rho`` equal ``target``.

    Works in the eigenbasis of ``rho``.  Raises
    :class:`InfeasibleTargetError` when the target is not majorized by the
    spectrum and :class:`FitError` when the constructed frame misses the
    target by more than ``RESIDUAL_LIMIT``.
    """
    lam, v = _eigenbasis(np.asarray(rho.matrix))
    t = target.probs

    feasible, slack = majorization_check(lam, t, 0.0)
    if not feasible:
        raise InfeasibleTargetError(
            f"target {t.tolist()} not majorized by spectrum "
            f"{np.sort(lam)[::-1].tolist()} (slack {slack:.6g})", slack)

    w = _schur_horn_frame(lam, t)
    r = (lam[:, None] * w ** 2).sum(axis=0) - t
    sse = float(r @ r)
    if not sse <= RESIDUAL_LIMIT:  # also rejects NaN
        raise FitError(f"constructed frame misses the target: squared "
                       f"residual {sse:.3g} exceeds {RESIDUAL_LIMIT}")
    return TransitionFit(frame=v @ w, residual=sse)


def _pava_nonincreasing(x: np.ndarray) -> np.ndarray:
    """Least-squares nonincreasing fit to ``x`` (pool adjacent violators)."""
    sums: list[float] = []
    counts: list[int] = []
    for value in x:
        sums.append(float(value))
        counts.append(1)
        while len(sums) > 1 and sums[-2] * counts[-1] < sums[-1] * counts[-2]:
            k, s = counts.pop(), sums.pop()
            counts[-1] += k
            sums[-1] += s
    return np.repeat([s / k for s, k in zip(sums, counts)], counts)


def project_to_majorized(target: ProbabilityVector, current,
                         ) -> tuple[ProbabilityVector, float, float]:
    """Nearest (Euclidean) distribution to ``target`` that is majorized by
    ``current``.  Returns (adjusted, max componentwise adjustment,
    Euclidean adjustment norm).

    The distributions majorized by ``current`` form its permutohedron; the
    projection onto it keeps the target's order and, in sorted coordinates,
    is the target minus an isotonic regression.
    """
    t = np.asarray(target.probs, dtype=float)
    c = np.sort(np.asarray(getattr(current, "probs", current), dtype=float))[::-1]
    order = np.argsort(-t, kind="stable")
    ts = t[order]
    ys = ts - _pava_nonincreasing(ts - c)

    adjusted = np.empty_like(t)
    adjusted[order] = ys
    adjusted = np.clip(adjusted, 0.0, None)
    adjusted /= adjusted.sum()
    _, slack = majorization_check(c, adjusted, 0.0)
    if slack > 1e-12:
        raise FitError(f"projection failed to reach the feasible set "
                       f"(slack {slack:.3g})")
    delta = adjusted - t
    return (ProbabilityVector(adjusted),
            float(np.max(np.abs(delta))),
            float(np.linalg.norm(delta)))


@dataclass(frozen=True)
class FitResult:
    """Frames and diagnostics for one fitted chain.

    ``frames[0]`` models the base question (standard basis); later entries
    are constructed.  ``achieved`` covers every question of the chain,
    including the isolated first one when present.
    """

    label: str
    isolate_first: bool
    base_index: int
    isolated_distribution: ProbabilityVector | None
    frames: tuple
    residuals: tuple
    achieved: tuple
    projection_distances: tuple

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def fit_chain(chain: SurveyChain, isolate_first: bool, tol: float) -> FitResult:
    """Construct frames for every question after the base one.

    With ``isolate_first`` the first question is carried exactly on its own
    tensor factor and the second question's basis becomes the reference;
    otherwise the first question itself is the reference.  Targets whose
    majorization slack is positive but within ``tol`` are first projected
    to the feasible set and the adjustment distance recorded.  The result
    depends on the chain alone, so reruns are bit-identical.
    """
    base_index = 1 if isolate_first else 0
    if len(chain.questions) <= base_index:
        raise ValueError("chain too short for this fitting mode")

    report = chain_feasibility(chain, isolate_first, tol)
    for tr in report.transitions:
        if not tr.feasible_at_tol:
            raise InfeasibleTargetError(
                f"transition Q{tr.from_index + 1}->Q{tr.to_index + 1} of "
                f"{chain.label!r} is infeasible: majorization slack "
                f"{tr.majorization_slack:.4g} exceeds tol {tol}",
                tr.majorization_slack, transition=tr)

    questions = chain.questions
    base = questions[base_index]
    isolated = questions[0].probs if isolate_first else None

    rho = DensityMatrix.from_pure(square_root_embed(base.probs))
    frames = [np.eye(chain.dim, dtype=np.complex128)]
    achieved = list([isolated] if isolated is not None else [])
    residuals: list[float] = []
    projections = [0.0]

    ach_base = outcome_probabilities(rho, frames[0])
    achieved.append(ach_base)
    rho = lueders_update(rho, frame_projectors(frames[0]))

    for q in questions[base_index + 1:]:
        spectrum = np.linalg.eigvalsh(rho.matrix)
        _, slack = majorization_check(spectrum, q.probs.probs, 0.0)
        target = q.probs
        proj_dist = 0.0
        if slack > 0.0:
            target, proj_dist, _ = project_to_majorized(q.probs, spectrum)
        tf = fit_transition(rho, target)
        frames.append(tf.frame)
        residuals.append(tf.residual)
        projections.append(proj_dist)
        achieved.append(outcome_probabilities(rho, tf.frame))
        rho = lueders_update(rho, frame_projectors(tf.frame))

    return FitResult(
        label=chain.label,
        isolate_first=isolate_first,
        base_index=base_index,
        isolated_distribution=isolated,
        frames=tuple(frames),
        residuals=tuple(residuals),
        achieved=tuple(achieved),
        projection_distances=tuple(projections),
    )


def replay(fit: FitResult, chain: SurveyChain) -> list[ProbabilityVector]:
    """Recompute the sequential statistics of a fit from scratch.

    Uses only the state machinery: embed the base distribution, then for
    each frame read off the outcome probabilities and apply the measurement
    update.  The isolated first question, if any, is reproduced verbatim.
    """
    base = chain.questions[fit.base_index]
    rho = DensityMatrix.from_pure(square_root_embed(base.probs))
    out: list[ProbabilityVector] = []
    if fit.isolated_distribution is not None:
        out.append(fit.isolated_distribution)
    for frame in fit.frames:
        out.append(outcome_probabilities(rho, frame))
        rho = lueders_update(rho, frame_projectors(frame))
    return out


def fit_result_to_dict(fit: FitResult) -> dict:
    """JSON-ready view; frames as row-major (re, im) pairs."""
    def frame_json(u: np.ndarray) -> list:
        return [[[float(z.real), float(z.imag)] for z in row] for row in u]

    return {
        "label": fit.label,
        "isolate_first": fit.isolate_first,
        "isolated_distribution": (None if fit.isolated_distribution is None
                                  else fit.isolated_distribution.probs.tolist()),
        "frames": [frame_json(u) for u in fit.frames],
        "residuals": list(fit.residuals),
        "achieved": [p.probs.tolist() for p in fit.achieved],
        "projection_distances": list(fit.projection_distances),
    }
