"""No-signalling on the five-factor, three-level tensor product.

Measurement series built from local observables on factors 1-4 cannot move
the fifth factor's marginal, whatever the (possibly entangled) initial
state.  This module applies measurement series factor by factor, each local
measurement as one superoperator on its factor's (row, column) index pair,
and checks the invariance numerically.  The tests check the contraction
against the same measurements built as dense projectors on the full space.
The input state is validated once, where it is built (``DensityMatrix``),
and a series' frames where the series is built, those of each size as one
stack, which gives the Gram product and, after every check, the frames'
superoperators, kept by factor for ``apply_series`` and
``no_signalling_check`` to read.  Every public function here that takes a
state raises ValueError unless it is a DensityMatrix, and one that takes a
series unless it is a LocalSeries.

Two routes give a series' fifth marginal.  ``apply_series`` followed by
``fifth_marginal`` is the Schroedinger-picture reference: it evolves the
state and traces it.  ``no_signalling_check`` works in the Heisenberg
picture: the marginal is a linear functional of the evolved state, so it
evolves each earlier factor's trace functional vec(I) backwards through that
factor's steps, d x d per factor, and contracts the unevolved state once
with the Kronecker product of the results; no evolved 243x243 state is
built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (_factor_dims, _index, _orthonormal_columns, as_matrix,
                      partial_trace)
from .states import DensityMatrix, ProbabilityVector, PureState, _check_type

FIVE_QUESTIONS = (3, 3, 3, 3, 3)


@dataclass(frozen=True)
class LocalSeries:
    """Ordered local measurements, (factor index, frame) pairs, on the
    tensor product with factor dimensions ``dims``, checked where it is
    built: ``dims`` are at least two positive integers, each factor index
    is a 0-based integer below the last (isolated) factor, and each frame
    is unitary and fits its factor.  Anything else raises ValueError.
    """

    steps: tuple
    dims: tuple = FIVE_QUESTIONS
    # each factor's step superoperators in step order, built once, here
    superoperators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = _factor_dims(self.dims)
        # a series may touch every factor but the last, so it needs two
        if len(dims) < 2:
            raise ValueError(f"a local series needs at least two factors, got {dims}")
        steps = tuple((_index(k, "factor index"), as_matrix(u))
                      for k, u in self.steps)
        # one stack per frame shape, for the Gram product and superoperators
        stacks = {}
        for _, u in steps:
            stacks.setdefault(u.shape, []).append(u)
        stacks = {shape: np.array(frames) for shape, frames in stacks.items()}
        if not all(rows == cols and _orthonormal_columns(frames)
                   for (rows, cols), frames in stacks.items()):
            raise ValueError("series frames must be unitary")
        for k, u in steps:
            if not 0 <= k < len(dims) - 1:
                raise ValueError(f"factor index {k} must lie in 0..{len(dims) - 2}")
            if u.shape != (dims[k], dims[k]):
                raise ValueError(f"frame of shape {u.shape} does not fit factor "
                                 f"{k} of dimension {dims[k]}")
        # each stack's superoperators are handed out in step order
        ops = {shape: iter(_superoperators(frames))
               for shape, frames in stacks.items()}
        groups = [[] for _ in dims[:-1]]
        for k, u in steps:
            groups[k].append(next(ops[u.shape]))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "superoperators", tuple(map(tuple, groups)))


def _superoperators(u: np.ndarray) -> np.ndarray:
    # rho -> sum_p P_p rho P_p on one factor, for each frame of a stack
    # (m, d, d), as a matrix on the factor's (row, column) index pair:
    # M = W W^H with W[(i, j), p] = U[i, p] conj(U[j, p])
    m, d = u.shape[:2]
    w = (u[:, :, None, :] * u.conj()[:, None, :, :]).reshape(m, d * d, d)
    return w @ w.conj().swapaxes(-1, -2)


def _check_series(state: DensityMatrix, series: LocalSeries, *others) -> tuple:
    # the series' dims; raises ValueError unless the state is a
    # DensityMatrix that lives on them and each series is a LocalSeries on
    # the same dims
    _check_type(state, DensityMatrix, "state")
    for s in (series, *others):
        _check_type(s, LocalSeries, "series")
    if any(o.dims != series.dims for o in others):
        raise ValueError("the series act on different factor dims")
    if state.dim != math.prod(series.dims):
        raise ValueError(f"state dim {state.dim} does not match {series.dims}")
    return series.dims


def apply_series(state: DensityMatrix, series: LocalSeries) -> DensityMatrix:
    """Sequential measurement updates of the series' local observables.

    Each step acts as the projective update with the embedded local
    projectors.  The measurement in frame ``U`` on factor k is the d²×d²
    superoperator ``M = W Wᴴ``, ``W[(i, j), p] = U[i, p]·conj(U[j, p])``,
    acting on that factor's (row, column) index pair, built once with the
    series: the state is transposed once into pair-major layout, each step
    is one matrix product on its pair axis, factor by factor (steps on
    different factors commute), and the result is transposed back once and
    Hermitian-symmetrised.  A state that is not a DensityMatrix, or does
    not live on the series' ``dims``, or a series that is not a
    LocalSeries, raises ValueError.

    The input was validated when it was built, and a series of projective
    measurements maps density matrices to density matrices, so the output
    is not validated again.
    """
    dims = _check_series(state, series)
    if not series.steps:
        return state
    n = len(dims)
    # pair-major layout i0 j0 i1 j1 ...: axis k is factor k's (row, column)
    # index pair, and each step is one matrix product on its axis
    t = state.matrix.reshape(dims + dims)
    t = t.transpose([a for k in range(n) for a in (k, n + k)])
    pairs = [d * d for d in dims]
    for k, group in enumerate(series.superoperators):
        shape = math.prod(pairs[:k]), pairs[k], math.prod(pairs[k + 1:])
        for op in group:
            t = np.matmul(op, t.reshape(shape))
    t = t.reshape([d for d in dims for _ in range(2)])
    m = t.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    m = m.reshape(state.dim, state.dim)
    return DensityMatrix._unchecked((m + m.conj().T) / 2)


def fifth_marginal(state: DensityMatrix, dims=FIVE_QUESTIONS) -> ProbabilityVector:
    """Standard-basis answer distribution of the last (isolated) factor.
    A state that is not a DensityMatrix raises ValueError."""
    _check_type(state, DensityMatrix, "state")
    reduced = partial_trace(state.matrix, dims, keep=len(dims) - 1)
    return ProbabilityVector._unchecked(reduced.diagonal().real)


def _heisenberg_marginal(state: DensityMatrix,
                         series: LocalSeries) -> ProbabilityVector:
    # <vec I| M_m ... M_1 on each earlier factor, built from its last step
    # back (M is Hermitian, so it is its own adjoint); their Kronecker
    # product is the functional on all earlier factors, and one einsum reads
    # the state once, uncopied, against it in each of the last factor's
    # diagonal blocks
    r = np.ones((1, 1), dtype=np.complex128)
    for d, group in zip(series.dims, series.superoperators):
        f = np.eye(d, dtype=np.complex128).reshape(d * d)
        for m in reversed(group):
            f = f @ m
        # np.kron(r, f) by broadcasting, without np.kron's Python overhead
        r = (r[:, None, :, None] * f.reshape(d, 1, d)).reshape(len(r) * d, -1)
    rest, last = r.shape[0], series.dims[-1]
    blocks = state.matrix.reshape(rest, last, rest, last)
    return ProbabilityVector._unchecked(np.einsum("ab,acbc->c", r, blocks).real)


def no_signalling_check(state: DensityMatrix, series_a: LocalSeries,
                        series_b: LocalSeries) -> float:
    """Largest componentwise gap between the fifth marginals after the two
    series.  Quantum transformation rules force this below numerical noise.

    Each marginal is read in the Heisenberg picture: for every factor k
    below the last, the row vec(I) is multiplied on the right by the
    superoperator of each of the series' steps on factor k, from the last
    step back to the first, giving a d_k x d_k functional R_k; the state is
    then contracted once with R_0 ⊗ ... ⊗ R_{n-2} in each of the last
    factor's diagonal blocks, and the marginal is the real part of the
    d_last numbers that gives.  The marginals equal
    ``fifth_marginal(apply_series(...))`` of each series, the
    Schroedinger-picture reference route.  A series that is not a
    LocalSeries, two series on different ``dims``, or a state that is not a
    DensityMatrix or does not live on them, raise ValueError.
    """
    _check_series(state, series_a, series_b)
    ma, mb = (_heisenberg_marginal(state, s) for s in (series_a, series_b))
    return float(np.max(np.abs(ma.probs - mb.probs)))


def random_entangled_state(rng: np.random.Generator,
                           dims=FIVE_QUESTIONS) -> DensityMatrix:
    """Pure state from a normalized complex Gaussian vector; generically
    entangled across every factor cut.  The outer product of a unit vector
    is a density matrix by construction, so it is not validated again.
    A dimension that is not a positive integer raises ValueError."""
    total = math.prod(_factor_dims(dims))
    psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return DensityMatrix.from_pure(PureState(psi / np.linalg.norm(psi)))


def random_local_series(rng: np.random.Generator, n_steps: int = 4,
                        dims=FIVE_QUESTIONS) -> LocalSeries:
    """Random frames on randomly chosen factors 1..(n-1), via Haar-ish QR.
    A dimension that is not a positive integer, or fewer than two factors,
    raises ValueError."""
    dims = LocalSeries((), dims).dims  # the empty series checks dims
    steps = []
    for _ in range(n_steps):
        k = int(rng.integers(0, len(dims) - 1))
        d = dims[k]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        steps.append((k, q))
    return LocalSeries(tuple(steps), dims)
