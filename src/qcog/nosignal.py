"""No-signalling on the five-factor, three-level tensor product.

Measurement series built from local observables on factors 1-4 cannot move
the fifth factor's marginal, whatever the (possibly entangled) initial
state.  This module applies measurement series factor by factor, each local
measurement as one superoperator on its factor's (row, column) index pair,
and checks the invariance numerically.  The tests check the contraction
against the same measurements built as dense projectors on the full space.
Positivity is checked once, where the input state is built, by Cholesky of
rho + tol*I; ``no_signalling_check`` reads each fifth marginal straight off
the pair-major tensor and rebuilds no 243x243 matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import _index, as_matrix, is_unitary, partial_trace
from .states import DensityMatrix, ProbabilityVector

FIVE_QUESTIONS = (3, 3, 3, 3, 3)


@dataclass(frozen=True)
class LocalSeries:
    """Ordered local measurements: (factor index, frame) pairs.

    Factor indices are 0-based integers (anything else raises ValueError);
    :func:`apply_series` checks that each one stays below the last factor,
    the isolated particle, of its ``dims``.
    """

    steps: tuple

    def __post_init__(self):
        steps = tuple((_index(k, "factor index"), as_matrix(u))
                      for k, u in self.steps)
        for _, u in steps:
            if not is_unitary(u):
                raise ValueError("series frames must be unitary")
        object.__setattr__(self, "steps", steps)


def _superoperator(u: np.ndarray) -> np.ndarray:
    # rho -> sum_p P_p rho P_p on one factor, as a matrix on its (row, column)
    # index pair: M = W W^H with W[(i, j), p] = U[i, p] conj(U[j, p])
    d = u.shape[0]
    w = (u[:, None, :] * u.conj()[None, :, :]).reshape(d * d, d)
    return w @ w.conj().T


def _check_series(state: DensityMatrix, series: LocalSeries, dims) -> tuple:
    # dims as ints; raises ValueError unless the state and every step fit them
    dims = tuple(_index(d, "factor dimension") for d in dims)
    if state.dim != int(np.prod(dims)):
        raise ValueError(f"state dim {state.dim} does not match {dims}")
    for k, u in series.steps:
        if not 0 <= k < len(dims) - 1:
            raise ValueError(f"factor index {k} must lie in 0..{len(dims) - 2}")
        if u.shape != (dims[k], dims[k]):
            raise ValueError(f"frame of shape {u.shape} does not fit factor {k} "
                             f"of dimension {dims[k]}")
    return dims


def _pair_major(m: np.ndarray, dims: tuple) -> np.ndarray:
    # layout i0 j0 i1 j1 ...: axis k is factor k's (row, column) index pair
    n = len(dims)
    t = m.reshape(dims + dims)
    return t.transpose([a for k in range(n) for a in (k, n + k)]).reshape(
        [d * d for d in dims])


def _run_steps(t: np.ndarray, series: LocalSeries) -> np.ndarray:
    # each step is one matrix product on its pair axis; t itself is not
    # written, so one pair-major state can feed several series
    pairs = t.shape
    for k, u in series.steps:
        pre, post = int(np.prod(pairs[:k])), int(np.prod(pairs[k + 1:]))
        t = np.matmul(_superoperator(u), t.reshape(pre, pairs[k], post))
    return t.reshape(pairs)


def apply_series(state: DensityMatrix, series: LocalSeries,
                 dims=FIVE_QUESTIONS) -> DensityMatrix:
    """Sequential measurement updates of the series' local observables.

    Each step acts as the projective update with the embedded local
    projectors.  The measurement in frame ``U`` on factor k is the d²×d²
    superoperator ``M = W Wᴴ``, ``W[(i, j), p] = U[i, p]·conj(U[j, p])``,
    acting on that factor's (row, column) index pair: the state is
    transposed once into pair-major layout, each step is one matrix
    product on its pair axis, and the result is transposed back once and
    Hermitian-symmetrised.  A step whose factor index or frame shape does
    not fit ``dims``, or a non-integer dimension, raises ValueError.

    The input was validated when it was built, and a series of projective
    measurements maps density matrices to density matrices, so the output
    is not validated again.
    """
    dims = _check_series(state, series, dims)
    if not series.steps:
        return state
    n = len(dims)
    t = _run_steps(_pair_major(state.matrix, dims), series)
    t = t.reshape([d for d in dims for _ in range(2)])
    m = t.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    m = m.reshape(state.dim, state.dim)
    return DensityMatrix._unchecked((m + m.conj().T) / 2)


def fifth_marginal(state: DensityMatrix, dims=FIVE_QUESTIONS) -> ProbabilityVector:
    """Standard-basis answer distribution of the last (isolated) factor."""
    reduced = partial_trace(state.matrix, dims, keep=len(dims) - 1)
    return ProbabilityVector(np.diag(reduced).real)


def _pair_major_marginal(t: np.ndarray, dims: tuple) -> ProbabilityVector:
    # fifth_marginal of a pair-major state: trace each earlier factor's pair
    # diagonal, then read the last factor's diagonal
    for d in dims[:-1]:
        t = np.trace(t.reshape(d, d, -1))
    return ProbabilityVector(np.diag(t.reshape(dims[-1], dims[-1])).real)


def no_signalling_check(state: DensityMatrix, series_a: LocalSeries,
                        series_b: LocalSeries, dims=FIVE_QUESTIONS) -> float:
    """Largest componentwise gap between the fifth marginals after the two
    series.  Quantum transformation rules force this below numerical noise.
    The marginals equal ``fifth_marginal(apply_series(...))`` of each series.
    """
    dims = _check_series(state, series_a, dims)
    _check_series(state, series_b, dims)
    t = _pair_major(state.matrix, dims)
    ma, mb = (_pair_major_marginal(_run_steps(t, s), dims)
              for s in (series_a, series_b))
    return float(np.max(np.abs(ma.probs - mb.probs)))


def random_entangled_state(rng: np.random.Generator,
                           dims=FIVE_QUESTIONS) -> DensityMatrix:
    """Pure state from a normalized complex Gaussian vector; generically
    entangled across every factor cut.  The outer product of a unit vector
    is a density matrix by construction, so it is not validated again."""
    total = int(np.prod(dims))
    psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    psi /= np.linalg.norm(psi)
    return DensityMatrix._unchecked(np.outer(psi, psi.conj()))


def random_local_series(rng: np.random.Generator, n_steps: int = 4,
                        dims=FIVE_QUESTIONS) -> LocalSeries:
    """Random frames on randomly chosen factors 1..(n-1), via Haar-ish QR."""
    steps = []
    for _ in range(n_steps):
        k = int(rng.integers(0, len(dims) - 1))
        d = dims[k]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        steps.append((k, q))
    return LocalSeries(tuple(steps))
