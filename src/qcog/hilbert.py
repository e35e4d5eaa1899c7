"""Dense complex linear algebra on small Hilbert spaces (dimensions 2 to 243).

Matrices and frames are plain numpy arrays of dtype complex128.  An
orthonormal frame is stored as a unitary matrix whose *columns* are the
frame vectors.  Everything here is a pure function over immutable inputs.
"""
from __future__ import annotations

import operator

import numpy as np

# Tolerances, in one table.  Each value is fixed; changing one moves verdicts.
# structural checks on states, frames and measurements: Hermiticity, trace,
# positivity, unitarity, projectors
STRUCTURAL_TOL = 1e-10
# largest accepted squared residual of a constructed frame (it reaches ~1e-31)
RESIDUAL_LIMIT = 1e-18
# a probability vector: most negative entry clipped to 0, and |sum - 1|
_NEGATIVE_PROB_TOL = 1e-12
_PROB_SUM_TOL = 1e-9
# a pure state: |norm - 1| accepted before renormalising
_AMPLITUDE_NORM_TOL = 1e-6
# largest off-diagonal entry of a state still treated as diagonal
_DIAGONAL_TOL = 1e-13
# majorization slack below this is partial-sum rounding noise, read as 0
_MAJORIZATION_NOISE = 1e-12
# largest fifth-marginal deviation nosignal-demo reports as no signalling
_NO_SIGNALLING_TOL = 1e-10


def _psd_within_tol(a: np.ndarray) -> bool:
    # for Hermitian a: a + tol*I has a Cholesky factor exactly when every
    # eigenvalue of a lies above -STRUCTURAL_TOL; half the cost of eigvalsh
    shifted = a.copy()
    shifted.flat[::a.shape[0] + 1] += STRUCTURAL_TOL  # the diagonal
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _index(value, what: str) -> int:
    # integers only: int() would turn 0.7 into 0 and 3.5 into 3, and
    # operator.index takes a bool, which is never meant as an index
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    # a 0x0 matrix gets a non-square matrix's verdict; numpy's max of an
    # empty array would raise
    if a.shape[0] != a.shape[1] or a.size == 0:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= STRUCTURAL_TOL)


def is_unitary(m) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1] or a.size == 0:
        return False
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a.conj().T @ a - eye)) <= STRUCTURAL_TOL)


def is_psd(m) -> bool:
    a = as_matrix(m)
    if not is_hermitian(a):
        return False
    return _psd_within_tol(a)


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Trace out every tensor factor of ``rho`` except ``dims[keep]``.

    ``dims`` lists the integer factor dimensions whose product must equal the
    side of the square matrix ``rho``.
    """
    a = as_matrix(rho)
    dims = [_index(d, "factor dimension") for d in dims]
    keep = _index(keep, "keep index")
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValueError(
            f"matrix shape {a.shape} does not match factor dims {dims}")
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} factors")

    # the factors before and after the kept one, each group as one index
    d = dims[keep]
    pre, post = int(np.prod(dims[:keep])), int(np.prod(dims[keep + 1:]))
    return np.einsum("aibajb->ij", a.reshape(pre, d, post, pre, d, post))


def frame_projectors(frame) -> list[np.ndarray]:
    """Rank-1 projectors onto the columns of ``frame``."""
    u = as_matrix(frame)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(u.shape[1])]
