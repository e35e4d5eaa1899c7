"""States of mind as probability vectors, pure states and density matrices.

Implements the square-root embedding of answer distributions, and a
question's answer distribution and projective, possibly degenerate, update
of the von Neumann-Lueders type, both read from its answers' bases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (_AMPLITUDE_NORM_TOL, _NEGATIVE_PROB_TOL,
                      _PERCENT_SUM_TOL, _PROB_SUM_TOL, STRUCTURAL_TOL,
                      _orthonormal_columns, _psd_fault, as_matrix)


class StateError(ValueError):
    """A state object violates its structural invariants."""


class MeasurementError(ValueError):
    """A measurement description is invalid (incomplete, non-orthogonal...)."""


class RowError(StateError):
    """One row of a batch of answer rows breaks the rule; ``row`` is its
    0-based index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _answer_rows(v: np.ndarray, percents: bool) -> np.ndarray:
    """The one rule for answer rows, on every row of the 2-d float array
    ``v`` at once; returns the rows as probabilities.

    Percentage rows (``percents``) must be nonnegative, with a sum within
    ``_PERCENT_SUM_TOL`` of 100 that each row is divided by.  Probability
    rows must be finite, with no entry below ``-_NEGATIVE_PROB_TOL`` and,
    clipped at zero, a sum within ``_PROB_SUM_TOL`` of 1.  The first faulty
    row raises :class:`RowError` with the message of its first failed check.
    """
    # a faulty row may overflow its sum or divide by zero: it is rejected
    # below, with no RuntimeWarning.  NaN compares false, so the >= and <=
    # tests flag its row, and the message names the check it fails first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if percents:
            total = np.add.reduce(v, axis=1)
            bad = ((np.minimum.reduce(v, axis=1, initial=np.inf) < 0)
                   | (np.abs(total - 100.0) > _PERCENT_SUM_TOL))
            p = v / total[:, None]
        else:
            bad, p = False, v
        q = np.maximum(p, 0.0)  # np.clip(p, 0.0, None), without its wrapper
        s = np.add.reduce(q, axis=1)
        bad = bad | ~((np.minimum.reduce(p, axis=1, initial=np.inf)
                       >= -_NEGATIVE_PROB_TOL)
                      & (np.abs(s - 1.0) <= _PROB_SUM_TOL))
    if bad.any():
        i = int(bad.argmax())
        if percents and np.any(v[i] < 0):
            message = f"negative percentage in {v[i].tolist()}"
        elif percents and abs(total[i] - 100.0) > _PERCENT_SUM_TOL:
            lo, hi = 100 - _PERCENT_SUM_TOL, 100 + _PERCENT_SUM_TOL
            message = (f"percentages sum to {total[i]}, "
                       f"outside [{lo:g}, {hi:g}]")
        elif not np.all(np.isfinite(p[i])):
            message = f"non-finite probability in {p[i].tolist()}"
        elif np.min(p[i]) < -_NEGATIVE_PROB_TOL:
            message = f"negative probability {np.min(p[i])}"
        else:
            message = f"probabilities sum to {s[i]}, not 1"
        raise RowError(message, i)
    return q


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative reals summing to 1; one question's answer distribution."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise StateError("probabilities must form a nonempty 1-d vector")
        q = _answer_rows(p[None], percents=False)[0]
        q.setflags(write=False)
        object.__setattr__(self, "probs", q)

    @classmethod
    def _unchecked(cls, p: np.ndarray) -> "ProbabilityVector":
        # for rows that passed the answer-row rule, and distributions valid
        # by construction; takes ownership of the float array p, freezes it
        # and checks nothing
        p.setflags(write=False)
        vector = object.__new__(cls)
        object.__setattr__(vector, "probs", p)
        return vector

    @classmethod
    def rows_from_percents(cls, rows) -> list["ProbabilityVector"]:
        """Each row of the 2-d array ``rows`` of nonnegative percentages,
        divided by its sum, which must lie within 1 of 100.  The rows are
        checked as one array; the first faulty row raises :class:`RowError`."""
        probs = _answer_rows(np.asarray(rows, dtype=float), percents=True)
        return [cls._unchecked(p) for p in probs]

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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix; the post-measurement state of mind."""

    matrix: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.matrix)
        if a.shape[0] != a.shape[1]:
            raise StateError("density matrix must be square")
        if a.size == 0:
            raise StateError("density matrix must be nonempty")
        if not np.all(np.isfinite(a)):
            raise StateError("non-finite entry in the density matrix")
        if abs(np.trace(a).real - 1.0) > STRUCTURAL_TOL:
            raise StateError(f"trace is {np.trace(a).real}, not 1")
        # one n x n buffer: the positivity rule's scratch, then the copy
        m = np.empty(a.shape, dtype=np.complex128)
        fault = _psd_fault(a, out=m)
        if fault:
            raise StateError(f"density matrix is {fault}")
        np.copyto(m, a)
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
        # the outer product of a validated unit vector is Hermitian, PSD and
        # of trace 1 by construction
        a = state.amplitudes
        return cls._unchecked(np.outer(a, a.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def square_root_embed(p: ProbabilityVector) -> PureState:
    """Embed a distribution as the vector of its nonnegative square roots."""
    return PureState(np.sqrt(p.probs).astype(np.complex128))


def _question(answers, d: int) -> tuple[np.ndarray, np.ndarray, int]:
    # the one question rule: U, each column's answer, and the answer count
    try:
        blocks = [np.asarray(b, dtype=np.complex128) for b in answers]
    except (TypeError, ValueError):
        raise MeasurementError("answer bases are not numeric arrays") from None
    for i, b in enumerate(blocks):
        if b.ndim != 2 or len(b) != d:
            raise MeasurementError(
                f"answer {i} has shape {b.shape}, not ({d}, r)")
    answer = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    if answer.size != d:
        raise MeasurementError(f"the answer bases' column count {answer.size}"
                               f" is not the state dimension {d}")
    # a unitary U makes the answers' projectors Hermitian, idempotent,
    # orthogonal and complete; NaN, inf or overflow fails it, with no warning
    u = np.hstack(blocks)
    if not _orthonormal_columns(u):
        raise MeasurementError("answer bases are not orthonormal")
    return u, answer, len(blocks)


def outcome_probabilities(state: DensityMatrix, answers) -> ProbabilityVector:
    """Answer distribution tr(B_i^H rho B_i) of a question whose answers have
    the bases B_i (as for :func:`lueders_update`): each block's trace."""
    u, answer, k = _question(answers, state.dim)
    p = np.einsum("ij,ik,kj->j", u.conj(), state.matrix, u).real
    return ProbabilityVector(np.bincount(answer, weights=p, minlength=k))


def lueders_update(state: DensityMatrix, answers) -> DensityMatrix:
    """Post-measurement state U blockdiag(U^H rho U) U^H of a question whose
    answers have the orthonormal bases ``answers``: (d, r) arrays, degenerate
    when r > 1, whose columns form the unitary U.  A question asked in frame
    u is ``np.hsplit(u, d)``."""
    u, answer, _ = _question(answers, state.dim)
    m = u.conj().T @ state.matrix @ u
    out = u @ (m * (answer[:, None] == answer)) @ u.conj().T
    return DensityMatrix((out + out.conj().T) / 2)


def degenerate_yes_probability(state: DensityMatrix, subspace_basis) -> float:
    """Probability of the pooled 'yes' answer of a degenerate binary question.

    ``subspace_basis`` spans the subspace whose projector defines 'yes'.
    """
    try:
        vecs = [np.asarray(v, dtype=np.complex128) for v in subspace_basis]
    except (TypeError, ValueError):
        raise MeasurementError("subspace basis is not numeric") from None
    if not vecs:
        raise MeasurementError("subspace basis is empty")
    if any(v.shape != (state.dim,) for v in vecs):
        raise MeasurementError(f"basis vectors must have length {state.dim}")
    v = np.stack(vecs, axis=1)
    if not _orthonormal_columns(v):
        raise MeasurementError("subspace basis is not orthonormal")
    value = np.trace(v.conj().T @ state.matrix @ v).real
    return float(np.clip(value, 0.0, 1.0))
