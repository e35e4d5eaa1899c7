"""Two-question interference in two dimensions.

Closed forms for the overlap and the follow-up answer probability when a
first (leading) question is asked unconditionally before a second one, the
spin-1/2 order-effect demonstration, and the (p, q) region scan showing
where the leading question inflates the follow-up answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import _index, _numeric
from .states import (DensityMatrix, ProbabilityVector, _question, _Question,
                     lueders_update, outcome_probabilities, square_root_embed)


def _check_unit_interval(name: str, x):
    x = _numeric(x, float, name)
    inside = (0.0 <= x) & (x <= 1.0)  # False for NaN
    if not inside.all():
        raise ValueError(f"{name}={x[~inside].flat[0]} outside [0, 1]")
    return x


def _as_output(value: np.ndarray, *inputs):
    # a Python float for scalar inputs, the broadcast array otherwise
    return float(value) if all(np.ndim(x) == 0 for x in inputs) else value


def overlap_alpha(p, q):
    """Squared overlap of the two yes-states for yes-probabilities p and q.

    Broadcasts over arrays; scalar inputs give a float.
    """
    pa, qa = _check_unit_interval("p", p), _check_unit_interval("q", q)
    root = np.sqrt(pa * qa) + np.sqrt((1.0 - pa) * (1.0 - qa))
    return _as_output(root * root, p, q)


def sequential_probability(p, q):
    """Yes-probability of the second question after the first one is asked.

    The first question has yes-probability p on the initial state, the
    second would have had q; the returned value is the second question's
    yes-probability after the first measurement has taken place.
    Broadcasts over arrays; scalar inputs give a float.
    """
    pa, qa = _check_unit_interval("p", p), _check_unit_interval("q", q)
    return _as_output(2 * pa * (pa - 1) * (2 * qa - 1) + qa
                      + 2 * (2 * pa - 1) * np.sqrt(pa * qa * (1 - pa) * (1 - qa)),
                      p, q)


def _check_probability(name: str, x) -> float:
    # the oracle's scalar entry: an array, even of one element, is refused.
    # A float in [0, 1] passes at once; NaN and every other type take the
    # full rule and its messages
    if type(x) is float and 0.0 <= x <= 1.0:
        return x
    x = _check_unit_interval(name, x)
    if x.ndim:
        raise ValueError(f"{name} must be a scalar")
    return float(x)


# the first question, checked once: its answers are the standard basis
# vectors, each a (2, 1) basis
_FIRST_QUESTION = _question(np.eye(2, dtype=np.complex128)[:, :, None], 2)


def _second_question_answers(p: float, q: float) -> _Question:
    # angle of the second question's yes-state relative to the first basis,
    # branch chosen so both amplitude overlaps are nonnegative square roots;
    # p and q lie in [0, 1], so their square roots need no clipping.  A
    # rotation: unitary by construction, so certified, not checked
    c = math.acos(math.sqrt(p)) - math.acos(math.sqrt(q))
    cos, sin = math.cos(c), math.sin(c)
    return _Question._unchecked(
        np.array([[cos, -sin], [sin, cos]], dtype=np.complex128))


def sequential_probability_via_states(p: float, q: float) -> float:
    """Same quantity through the explicit state pipeline (the ground truth).

    Embeds the initial pure state by square roots, applies the first
    question's update and reads off the second question's distribution,
    each question given as its answers' bases (its frame's columns).
    ``p`` and ``q`` are scalars in [0, 1], or ValueError is raised.
    """
    p = _check_probability("p", p)
    q = _check_probability("q", q)
    psi = square_root_embed(  # p was checked: [p, 1 - p] is a distribution
        ProbabilityVector._unchecked(np.array([p, 1.0 - p])))
    rho = DensityMatrix.from_pure(psi)
    rho = lueders_update(rho, _FIRST_QUESTION)
    answers = _second_question_answers(p, q)
    return float(outcome_probabilities(rho, answers).probs[0])


@dataclass(frozen=True)
class InterferenceResult:
    """Leading-question effect over a scan: one 1-d array per field, one
    entry per cell."""

    p: np.ndarray
    q: np.ndarray
    alpha: np.ndarray
    p_f_b: np.ndarray
    delta: np.ndarray
    in_region: np.ndarray


def grid_centers(grid_n: int) -> np.ndarray:
    """The grid_n cell centers (i + 1/2) / grid_n of the scan along p and q;
    ``grid_n`` must be an integer of at least 2, or ValueError is raised."""
    grid_n = _index(grid_n, "grid_n")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    return (np.arange(grid_n) + 0.5) / grid_n


def interference_region_scan(grid_n: int) -> InterferenceResult:
    """Uniform grid_n x grid_n scan of cell centers over (0, 1) x (0, 1).

    Returns columns: each field is a 1-d array of grid_n**2 cells in
    row-major order (p outer, q inner).  The boundary values p, q in
    {0, 1} are excluded by the cell-center sampling.
    """
    centers = grid_centers(grid_n)
    p = np.repeat(centers, centers.size)
    q = np.tile(centers, centers.size)
    pfb = sequential_probability(p, q)
    return InterferenceResult(
        p=p, q=q, alpha=overlap_alpha(p, q), p_f_b=pfb, delta=pfb - q,
        in_region=(p > pfb) & (pfb > q))


def spin_order_demo() -> tuple[float, float]:
    """P(X=UP) of the x-up spin-1/2, direct and after a y-spin measurement
    (each question's answers: its frame's columns); (1, 1/2) up to rounding."""
    s = 1.0 / np.sqrt(2.0)
    x = np.hsplit(np.array([[s, s], [s, -s]], dtype=np.complex128), 2)
    y = np.hsplit(np.array([[s, s], [1j * s, -1j * s]], dtype=np.complex128), 2)

    rho = DensityMatrix(x[0] @ x[0].conj().T)  # the x-up state
    x = _question(x, 2)  # read twice, checked once
    direct = float(outcome_probabilities(rho, x).probs[0])

    rho_after_y = lueders_update(rho, y)
    after = float(outcome_probabilities(rho_after_y, x).probs[0])
    return direct, after
