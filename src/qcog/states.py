"""States of mind as probability vectors, pure states and density matrices.

Implements the square-root embedding of answer distributions, and a
question's answer distribution and projective, possibly degenerate, update
of the von Neumann-Lueders type, both read from its answers' bases.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (_AMPLITUDE_NORM_TOL, _NEGATIVE_PROB_TOL, _PROB_SUM_TOL,
                      STRUCTURAL_TOL, _numeric, _orthonormal_columns,
                      _psd_fault)


class StateError(ValueError):
    """A state object violates its structural invariants."""


class MeasurementError(ValueError):
    """A measurement description is invalid (incomplete, non-orthogonal...)."""


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative reals summing to 1; one question's answer distribution."""

    probs: np.ndarray

    def __post_init__(self):
        p = _numeric(self.probs, float, "probabilities", StateError)
        if p.ndim != 1 or p.size == 0:
            raise StateError("probabilities must form a nonempty 1-d vector")
        if not np.isfinite(p).all():
            raise StateError(f"non-finite probability in {p.tolist()}")
        if p.min() < -_NEGATIVE_PROB_TOL:
            raise StateError(f"negative probability {p.min()}")
        q = np.maximum(p, 0.0)  # np.clip(p, 0.0, None), without its wrapper
        with np.errstate(over="ignore"):  # a sum beyond float range fails
            s = np.add.reduce(q)
        if abs(s - 1.0) > _PROB_SUM_TOL:
            raise StateError(f"probabilities sum to {s}, not 1")
        q.setflags(write=False)
        object.__setattr__(self, "probs", q)

    @classmethod
    def _unchecked(cls, p: np.ndarray) -> "ProbabilityVector":
        # every distribution computed from validated inputs: clipped at 0 (a
        # state PSD within STRUCTURAL_TOL, read by a question unitary within
        # it, puts an entry below 0 only by rounding at that tol), not checked
        q = np.maximum(p, 0.0)  # -0.0 to 0
        q.setflags(write=False)
        vector = object.__new__(cls)
        object.__setattr__(vector, "probs", q)
        return vector

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _numeric(self.amplitudes, np.complex128, "amplitudes", StateError)
        if a.ndim != 1 or a.size == 0:
            raise StateError("amplitudes must form a nonempty 1-d vector")
        if not np.isfinite(a).all():
            raise StateError(f"non-finite amplitude in {a.tolist()}")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > _AMPLITUDE_NORM_TOL:
            raise StateError(f"amplitude norm {norm} too far from 1")
        a = a / norm  # never the caller's array
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def _unchecked(cls, a: np.ndarray) -> "PureState":
        # for unit vectors by construction (square_root_embed); takes
        # ownership of the complex128 array a, freezes it and checks nothing
        a.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", a)
        return state


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix; the post-measurement state of mind."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _numeric(self.matrix, np.complex128, "density matrix", StateError)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StateError("density matrix must be square")
        if a.size == 0:
            raise StateError("density matrix must be nonempty")
        # one n x n buffer: the positivity rule's scratch, then the copy.  A
        # NaN or inf entry fails both the rank-one certificate and the
        # Hermiticity pass, so a matrix the rule accepts is finite and only a
        # faulted one is scanned for non-finite entries; the faults are named
        # in the order non-finite, trace, positivity
        m = np.empty(a.shape, dtype=np.complex128)
        fault = _psd_fault(a, out=m)
        if fault and not np.isfinite(a).all():
            raise StateError("non-finite entry in the density matrix")
        trace = a.trace().real
        if abs(trace - 1.0) > STRUCTURAL_TOL:
            raise StateError(f"trace is {trace}, not 1")
        if fault:
            raise StateError(f"density matrix is {fault}")
        np.copyto(m, a)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _unchecked(cls, m: np.ndarray) -> "DensityMatrix":
        # for outputs that are density matrices by construction (a CPTP map
        # of a validated state, a normalised outer product); takes ownership
        # of the complex128 array m, freezes it and checks nothing.  A Lueders
        # update with answers of rank <= 1 is certified: it is U diag(c) U^H,
        # c = Re diag(U^H rho U), exactly Hermitian once symmetrised, and by
        # Ostrowski its eigenvalues are theta_k c_k, theta_k within d tol of 1
        # as max|U^H U - I| <= tol (the question rule); a rescale divides by
        # a trace within ~2 d tol of 1.  So min c >= -tol/2 keeps every
        # eigenvalue above -tol, as the state rule asks, while d tol << 1
        m.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        return state

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        _check_type(state, PureState, "state")
        # the outer product of a validated unit vector is Hermitian, PSD and
        # of trace 1 by construction
        a = state.amplitudes
        return cls._unchecked(np.outer(a, a.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def _check_type(value, cls: type, what: str) -> None:
    # the one type rule at a public entry point: a bare array, list or dict
    # would otherwise fail later with an AttributeError
    if not isinstance(value, cls):
        raise ValueError(f"{what} must be a {cls.__name__}, "
                         f"got {type(value).__name__}")


def square_root_embed(p: ProbabilityVector) -> PureState:
    """Embed a distribution as the vector of its nonnegative square roots."""
    _check_type(p, ProbabilityVector, "p")
    # the probabilities sum to 1 within _PROB_SUM_TOL, so the norm is 1
    # within half that, far inside _AMPLITUDE_NORM_TOL: not checked again
    a = np.sqrt(p.probs).astype(np.complex128)
    return PureState._unchecked(a / np.linalg.norm(a))


class _Question(NamedTuple):
    # a checked question, trusted from then on: its frame U, each column's
    # answer (both frozen) and the answer count; the question rule builds it
    u: np.ndarray
    answer: np.ndarray
    k: int

    @classmethod
    def _unchecked(cls, u: np.ndarray) -> "_Question":
        # for frames unitary by construction, one answer per column; takes
        # ownership of the complex128 array u, freezes it and checks nothing.
        # The rotation [[c, -s], [s, c]] from math.cos and math.sin is one:
        # U^H U - I has off-diagonal c(-s) + sc = 0 exactly and diagonal
        # c^2 + s^2 - 1 of a few ulps, far inside STRUCTURAL_TOL
        answer = np.arange(len(u))
        u.setflags(write=False)
        answer.setflags(write=False)
        return cls(u, answer, len(u))


def _question(answers, d: int) -> _Question:
    # the one question rule.  A checked question is trusted, its dimension
    # compared with d (the message raw answers of that shape get); raw
    # answers are checked
    if type(answers) is _Question:
        u, answer, _ = answers
        if len(u) != d:
            shape = (len(u), int(np.count_nonzero(answer == 0)))
            raise MeasurementError(f"answer 0 has shape {shape}, not ({d}, r)")
        return answers
    blocks = [_numeric(b, np.complex128, "answer bases", MeasurementError)
              for b in (answers if np.iterable(answers) else [answers])]
    for i, b in enumerate(blocks):
        if b.ndim != 2 or len(b) != d:
            raise MeasurementError(
                f"answer {i} has shape {b.shape}, not ({d}, r)")
    answer = np.arange(len(blocks)).repeat([b.shape[1] for b in blocks])
    if answer.size != d:
        raise MeasurementError(f"the answer bases' column count {answer.size}"
                               f" is not the state dimension {d}")
    # a unitary U makes the answers' projectors Hermitian, idempotent,
    # orthogonal and complete; NaN, inf or overflow fails it, with no warning
    u = np.concatenate(blocks, axis=1)
    if not _orthonormal_columns(u):
        raise MeasurementError("answer bases are not orthonormal")
    u.setflags(write=False)
    answer.setflags(write=False)
    return _Question(u, answer, len(blocks))


def outcome_probabilities(state: DensityMatrix, answers) -> ProbabilityVector:
    """Answer distribution tr(B_i^H rho B_i) of a question whose answers have
    the bases B_i (as for :func:`lueders_update`): each block's trace."""
    _check_type(state, DensityMatrix, "state")
    u, answer, k = _question(answers, state.dim)
    p = np.einsum("ij,ik,kj->j", u.conj(), state.matrix, u).real
    return ProbabilityVector._unchecked(np.bincount(answer, p, k))


def lueders_update(state: DensityMatrix, answers) -> DensityMatrix:
    """Post-measurement state U blockdiag(U^H rho U) U^H of a question whose
    answers have the orthonormal bases ``answers``: (d, r) arrays, degenerate
    when r > 1, whose columns form the unitary U.  A question asked in frame
    u is ``np.hsplit(u, d)``."""
    _check_type(state, DensityMatrix, "state")
    u, answer, _ = _question(answers, state.dim)
    m = u.conj().T @ state.matrix @ u
    same = answer[:, None] == answer  # the block mask
    out = u @ (m * same) @ u.conj().T
    out = (out + out.conj().T) / 2
    # U is unitary only within STRUCTURAL_TOL, which can move the trace by
    # more than that: such an output is rescaled to trace 1, and any other
    # keeps its bits
    trace = out.trace().real
    if abs(trace - 1.0) > STRUCTURAL_TOL:
        out /= trace
    # no answer of rank 2 or more (the mask is I): certified, by the bound
    # DensityMatrix._unchecked states; else the state rule checks it
    if (np.count_nonzero(same) == len(answer)
            and m.diagonal().real.min() >= -STRUCTURAL_TOL / 2):
        return DensityMatrix._unchecked(out)
    return DensityMatrix(out)


def degenerate_yes_probability(state: DensityMatrix, subspace_basis) -> float:
    """Probability of the pooled 'yes' answer of a degenerate binary question.

    ``subspace_basis`` spans the subspace whose projector defines 'yes'.
    The value is floored at 0, as every answer probability read off a state
    is (rounding at the state's tolerance can take it just below), and not
    capped at 1.
    """
    _check_type(state, DensityMatrix, "state")
    v = _numeric(subspace_basis, np.complex128, "subspace basis",
                 MeasurementError).T  # the basis vectors as columns
    if v.size == 0:
        raise MeasurementError("subspace basis is empty")
    if v.ndim != 2 or len(v) != state.dim:
        raise MeasurementError(f"basis vectors must have length {state.dim}")
    if not _orthonormal_columns(v):
        raise MeasurementError("subspace basis is not orthonormal")
    value = np.trace(v.conj().T @ state.matrix @ v).real
    return float(max(value, 0.0))
