"""Dense complex linear algebra on small Hilbert spaces (dimensions 2 to 243).

Matrices and frames are plain numpy arrays of dtype complex128.  An
orthonormal frame is stored as a unitary matrix whose *columns* are the
frame vectors.  Everything here is a pure function over immutable inputs.
"""
from __future__ import annotations

import numpy as np

# the one tolerance of structural checks on states, frames and measurements
STRUCTURAL_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def is_hermitian(m, tol: float = STRUCTURAL_TOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_unitary(m, tol: float = STRUCTURAL_TOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a.conj().T @ a - eye)) <= tol)


def is_psd(m, tol: float = STRUCTURAL_TOL) -> bool:
    a = as_matrix(m)
    if not is_hermitian(a, tol):
        return False
    return bool(np.min(np.linalg.eigvalsh(a)) >= -tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor indexes the blocks."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Trace out every tensor factor of ``rho`` except ``dims[keep]``.

    ``dims`` lists the factor dimensions whose product must equal the side
    of the square matrix ``rho``.
    """
    a = as_matrix(rho)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValueError(
            f"matrix shape {a.shape} does not match factor dims {dims}")
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} factors")

    t = a.reshape(dims + dims)
    # shared letter on traced factors, distinct row/col letters on the kept one
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = list(letters[:n])
    row[keep] = "y"
    col[keep] = "z"
    sub = "".join(row) + "".join(col) + "->yz"
    return np.einsum(sub, t)


def frame_projectors(frame) -> list[np.ndarray]:
    """Rank-1 projectors onto the columns of ``frame``."""
    u = as_matrix(frame)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(u.shape[1])]
