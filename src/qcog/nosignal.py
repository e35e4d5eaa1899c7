"""No-signalling on the five-factor, three-level tensor product.

Measurement series built from local observables on factors 1-4 cannot move
the fifth factor's marginal, whatever the (possibly entangled) initial
state.  This module embeds local frames into the 243-dimensional space,
applies measurement series, and checks the invariance numerically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import as_matrix, frame_projectors, is_unitary, kron, partial_trace
from .states import DensityMatrix, ProbabilityVector

FIVE_QUESTIONS = (3, 3, 3, 3, 3)
MAX_TOTAL_DIM = 1024


@dataclass(frozen=True)
class LocalSeries:
    """Ordered local measurements: (factor index, frame) pairs.

    Factor indices are 0-based and must stay below the last factor, which
    plays the isolated fifth particle.
    """

    steps: tuple

    def __post_init__(self):
        steps = tuple((int(k), as_matrix(u)) for k, u in self.steps)
        for k, u in steps:
            if not 0 <= k < len(FIVE_QUESTIONS) - 1:
                raise ValueError(
                    f"factor index {k} must lie in 0..{len(FIVE_QUESTIONS) - 2}")
            if not is_unitary(u, 1e-10):
                raise ValueError("series frames must be unitary")
        object.__setattr__(self, "steps", steps)


def embed_local(frame, factor_index: int, dims=FIVE_QUESTIONS) -> list[np.ndarray]:
    """Projectors I x ... x |q_i><q_i| x ... x I on the full space."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if total > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {total} exceeds {MAX_TOTAL_DIM}")
    if not 0 <= factor_index < len(dims):
        raise ValueError(f"factor index {factor_index} out of range")
    u = as_matrix(frame)
    if u.shape != (dims[factor_index], dims[factor_index]):
        raise ValueError("frame dimension does not match its factor")

    pre = np.eye(int(np.prod(dims[:factor_index])))
    post = np.eye(int(np.prod(dims[factor_index + 1:])))
    return [kron(kron(pre, p), post) for p in frame_projectors(u)]


def _local_lueders(rho: np.ndarray, frame: np.ndarray, factor_index: int,
                   dims) -> np.ndarray:
    # rotate the factor into the frame basis, drop inter-outcome coherences,
    # rotate back; equivalent to the full-space projector update
    d = dims[factor_index]
    pre = int(np.prod(dims[:factor_index]))
    post = int(np.prod(dims[factor_index + 1:]))
    t = rho.reshape(pre, d, post, pre, d, post)
    u = frame
    s = np.einsum("ip,aibcje,jq->apbcqe", u.conj(), t, u, optimize=True)
    s *= np.eye(d)[None, :, None, None, :, None]
    t = np.einsum("ip,apbcqe,jq->aibcje", u, s, u.conj(), optimize=True)
    total = pre * d * post
    return t.reshape(total, total)


def apply_series(state: DensityMatrix, series: LocalSeries,
                 dims=FIVE_QUESTIONS) -> DensityMatrix:
    """Sequential measurement updates of the series' local observables.

    Each step acts as the projective update with the embedded local
    projectors; the implementation contracts the affected factor directly
    instead of materializing full-space projectors.  A step whose factor
    index or frame shape does not fit ``dims`` raises ValueError.
    """
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if state.dim != total:
        raise ValueError(f"state dim {state.dim} does not match {dims}")
    for k, u in series.steps:
        if not 0 <= k < len(dims) - 1:
            raise ValueError(f"factor index {k} must lie in 0..{len(dims) - 2}")
        if u.shape != (dims[k], dims[k]):
            raise ValueError(f"frame of shape {u.shape} does not fit factor {k} "
                             f"of dimension {dims[k]}")
    if not series.steps:
        return state
    m = np.asarray(state.matrix)
    for k, u in series.steps:
        m = _local_lueders(m, u, k, dims)
    m = (m + m.conj().T) / 2
    return DensityMatrix(m)


def fifth_marginal(state: DensityMatrix, dims=FIVE_QUESTIONS) -> ProbabilityVector:
    """Standard-basis answer distribution of the last (isolated) factor."""
    dims = tuple(int(d) for d in dims)
    reduced = partial_trace(state.matrix, dims, keep=len(dims) - 1)
    return ProbabilityVector(np.diag(reduced).real)


def no_signalling_check(state: DensityMatrix, series_a: LocalSeries,
                        series_b: LocalSeries, dims=FIVE_QUESTIONS) -> float:
    """Largest componentwise gap between the fifth marginals after the two
    series.  Quantum transformation rules force this below numerical noise."""
    ma = fifth_marginal(apply_series(state, series_a, dims), dims)
    mb = fifth_marginal(apply_series(state, series_b, dims), dims)
    return float(np.max(np.abs(ma.probs - mb.probs)))


def random_entangled_state(rng: np.random.Generator,
                           dims=FIVE_QUESTIONS) -> DensityMatrix:
    """Pure state from a normalized complex Gaussian vector; generically
    entangled across every factor cut."""
    total = int(np.prod(dims))
    psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


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
