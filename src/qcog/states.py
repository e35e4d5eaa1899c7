"""States of mind as probability vectors, pure states and density matrices.

Implements the square-root embedding of answer distributions and the
projective, possibly degenerate, measurement update of the von
Neumann-Lueders type.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (_AMPLITUDE_NORM_TOL, _NEGATIVE_PROB_TOL, _PROB_SUM_TOL,
                      STRUCTURAL_TOL, as_matrix, is_hermitian, is_unitary)


class StateError(ValueError):
    """A state object violates its structural invariants."""


class MeasurementError(ValueError):
    """A measurement description is invalid (incomplete, non-orthogonal...)."""


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative reals summing to 1; one question's answer distribution."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        if p.ndim != 1 or p.size == 0:
            raise StateError("probabilities must form a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise StateError(f"non-finite probability in {p.tolist()}")
        if np.min(p) < -_NEGATIVE_PROB_TOL:
            raise StateError(f"negative probability {np.min(p)}")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > _PROB_SUM_TOL:
            raise StateError(f"probabilities sum to {p.sum()}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_percents(cls, values) -> "ProbabilityVector":
        """Divide by 100 and renormalize; reject if the sum is off by > 1%."""
        v = np.asarray(values, dtype=float)
        if np.any(v < 0):  # an empty list fails the sum check below
            raise StateError(f"negative percentage in {list(v)}")
        s = v.sum()
        if abs(s - 100.0) > 1.0:
            raise StateError(f"percentages sum to {s}, outside [99, 101]")
        return cls(v / s)

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if a.ndim != 1 or a.size == 0:
            raise StateError("amplitudes must form a nonempty 1-d vector")
        if not np.all(np.isfinite(a)):
            raise StateError(f"non-finite amplitude in {a.tolist()}")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > _AMPLITUDE_NORM_TOL:
            raise StateError(f"amplitude norm {norm} too far from 1")
        a /= norm
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix; the post-measurement state of mind."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix).copy()
        if m.shape[0] != m.shape[1]:
            raise StateError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise StateError("non-finite entry in the density matrix")
        if not is_hermitian(m):
            raise StateError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > STRUCTURAL_TOL:
            raise StateError(f"trace is {np.trace(m).real}, not 1")
        # is_psd would check Hermiticity a second time
        if not np.min(np.linalg.eigvalsh(m)) >= -STRUCTURAL_TOL:
            raise StateError("density matrix is not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _unchecked(cls, m: np.ndarray) -> "DensityMatrix":
        # for outputs that are density matrices by construction (a CPTP map
        # of a validated state, a normalised outer product); takes ownership
        # of the complex128 array m, freezes it and checks nothing
        m.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        return state

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        a = state.amplitudes
        return cls(np.outer(a, a.conj()))

    @classmethod
    def diagonal(cls, p: ProbabilityVector) -> "DensityMatrix":
        return cls(np.diag(p.probs).astype(np.complex128))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def square_root_embed(p: ProbabilityVector) -> PureState:
    """Embed a distribution as the vector of its nonnegative square roots."""
    return PureState(np.sqrt(p.probs).astype(np.complex128))


def outcome_probabilities(state: DensityMatrix, frame) -> ProbabilityVector:
    """Answer distribution <Q_i|rho|Q_i> of a question asked in ``frame``."""
    u = as_matrix(frame)
    if u.shape != (state.dim, state.dim):
        raise MeasurementError(
            f"frame shape {u.shape} does not match state dim {state.dim}")
    if not is_unitary(u):
        raise MeasurementError("frame is not orthonormal")
    p = np.einsum("ij,ik,kj->j", u.conj(), state.matrix, u).real
    return ProbabilityVector(p)


def _check_projective(projectors, dim: int) -> None:
    # Hermitian idempotents that sum to the identity are pairwise orthogonal:
    # P_j = sum_i P_j P_i P_j = P_j + sum_{i != j} (P_i P_j)^H (P_i P_j)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i, p in enumerate(projectors):
        if p.shape != (dim, dim):
            raise MeasurementError("projector dimension mismatch")
        if not is_hermitian(p) or np.max(np.abs(p @ p - p)) > STRUCTURAL_TOL:
            raise MeasurementError(
                f"projector {i} is not a Hermitian idempotent")
        total += p
    if np.max(np.abs(total - np.eye(dim))) > STRUCTURAL_TOL:
        raise MeasurementError("projectors do not sum to the identity")


def lueders_update(state: DensityMatrix, projectors) -> DensityMatrix:
    """Post-measurement state sum_i P_i rho P_i for a complete orthogonal set.

    Projectors may have rank > 1 (degenerate questions).
    """
    projs = [as_matrix(p) for p in projectors]
    _check_projective(projs, state.dim)
    out = sum(p @ state.matrix @ p for p in projs)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def degenerate_yes_probability(state: DensityMatrix, subspace_basis) -> float:
    """Probability of the pooled 'yes' answer of a degenerate binary question.

    ``subspace_basis`` spans the subspace whose projector defines 'yes'.
    """
    vecs = [np.asarray(v, dtype=np.complex128) for v in subspace_basis]
    if not vecs:
        raise MeasurementError("subspace basis is empty")
    if any(v.shape != (state.dim,) for v in vecs):
        raise MeasurementError(f"basis vectors must have length {state.dim}")
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    if np.max(np.abs(gram - np.eye(len(vecs)))) > STRUCTURAL_TOL:
        raise MeasurementError("subspace basis is not orthonormal")
    proj = sum(np.outer(v, v.conj()) for v in vecs)
    value = float(np.trace(state.matrix @ proj).real)
    return float(np.clip(value, 0.0, 1.0))
