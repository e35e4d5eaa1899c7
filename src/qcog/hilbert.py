"""Dense complex linear algebra on small Hilbert spaces (dimensions 2 to 243).

Matrices and frames are complex128 numpy arrays; a frame is a unitary
matrix whose *columns* are the frame vectors, and a question's answers are
blocks of them.  The entry rules for a caller's numbers are ``_numeric``,
``_index``, ``_factor_dims`` and ``_tolerance``; every function is pure but
``_psd_fault`` and ``_rank_one_certificate``, which fill a caller's ``out``.
"""
from __future__ import annotations

import operator

import numpy as np

# Tolerances, in one table.  Each value is fixed; changing one moves verdicts.
# structural checks on states and questions: trace, Hermiticity and positivity
# (_psd_fault), and orthonormal answer bases and frames (_orthonormal_columns)
STRUCTURAL_TOL = 1e-10
# largest accepted squared residual of a constructed frame (it reaches ~1e-31)
RESIDUAL_LIMIT = 1e-18
# a caller's probability row: most negative entry clipped to 0
_NEGATIVE_PROB_TOL = 1e-12
# a caller's probability row, and majorization_check's two totals: |sum - 1|
_PROB_SUM_TOL = 1e-9
# a pure state: |norm - 1| accepted before renormalising
_AMPLITUDE_NORM_TOL = 1e-6
# ingest's percent rows, its one user: |sum - 100| accepted, exactly
_PERCENT_SUM_TOL = 1
# majorization slack below this is partial-sum rounding noise, read as 0
_MAJORIZATION_NOISE = 1e-12
# largest fifth-marginal deviation nosignal-demo reports as no signalling
_NO_SIGNALLING_TOL = 1e-10


def _rank_one_certificate(a: np.ndarray, out: np.ndarray) -> bool:
    # O(n^2) proof that a is Hermitian and PSD within tolerance, for a pure
    # state; False proves nothing.  With v = a[:, j]/sqrt(a[j, j]) at the
    # largest diagonal entry it accepts when ||R||_F <= tol/(2 sqrt 2) for
    # R = a - v v^H, written into out (n x n complex128, a caller's
    # scratch).  Hermiticity: v v^H is Hermitian to rounding
    # (~1e-17), so max|a - a^H| <= 2||R||_F <= tol/sqrt 2, inside
    # STRUCTURAL_TOL.  Positivity: Cholesky and eigvalsh read only the lower
    # triangle of a, and for the Hermitian H it defines, H - v v^H is built
    # from tril(R), so ||H - v v^H||_F^2 <= 2||R||_F^2 <= (tol/2)^2 and by
    # Weyl lambda_min(H) >= -tol/2
    diag = a.diagonal().real
    j = int(np.argmax(diag))
    bound = STRUCTURAL_TOL ** 2 / 8
    # overflow or nan in a wild input fails the comparisons, with no
    # RuntimeWarning under _psd_fault's np.errstate
    if not diag[j] > 0:
        return False
    v = a[:, j] / np.sqrt(diag[j])
    # O(n) pre-test: diag(R) alone exceeds the bound at full rank
    rd = diag - (v.real ** 2 + v.imag ** 2)
    if not rd @ rd <= bound:
        return False
    r = np.outer(v, v.conj(), out=out)
    np.subtract(a, r, out=r)
    return bool(np.vdot(r, r).real <= bound)


def _index(value, what: str) -> int:
    # integers only: int() would turn 0.7 into 0 and 3.5 into 3, and
    # operator.index takes a bool, which is never meant as an index
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _numeric(values, dtype, what: str, error=ValueError) -> np.ndarray:
    # the one coercion of a caller's array: error for a ragged, non-numeric
    # or out-of-range input, and for a complex one where reals are due
    try:
        a = np.asarray(values)
        # text, also held in an object array: astype would parse ['0.5']
        if a.dtype.kind in "US" or (a.dtype.kind == "O" and any(
                isinstance(x, (str, bytes)) for x in a.flat)):
            raise TypeError
        if a.dtype.kind != "c" or dtype is np.complex128:
            return a.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must form a numeric array") from None
    raise error(f"{what} must be real, not complex")


# the largest finite float, a tolerance's bound, looked up once; a Python
# float, which compares exactly with an integer beyond float range
_FLOAT_MAX = float(np.finfo(float).max)


def _tolerance(tol):
    # finite and >= 0, never a bool; returned as given, as messages print it
    if (isinstance(tol, (int, float, np.integer, np.floating))
            and not isinstance(tol, bool) and 0 <= tol <= _FLOAT_MAX):
        return tol
    raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def _factor_dims(dims) -> tuple:
    # int() would read a dimension of 3.5 as 3, and np.prod of (-3, -3) is
    # a 9-dimensional space
    dims = tuple(_index(d, "factor dimension") for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    return dims


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = _numeric(m, np.complex128, "matrix")
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def _orthonormal_columns(a: np.ndarray) -> bool:
    # the one rule for frames and subspace bases: max|A^H A - I| <= tol, for
    # one matrix or over a stack of them (..., n, k); a NaN, inf or overflow
    # fails the comparison, with no RuntimeWarning.  A^H A - I is the Gram
    # product with 1 taken off its diagonal in place (einsum's diagonal is a
    # writable view at any strides): the bits of subtracting np.eye
    if a.size == 0:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.conj().swapaxes(-1, -2) @ a
        diagonal = np.einsum("...ii->...i", gram)
        diagonal -= 1
        return bool(np.maximum.reduce(np.abs(gram), axis=None) <= STRUCTURAL_TOL)


def _psd_fault(a: np.ndarray, out: np.ndarray) -> str | None:
    # the one positivity rule, of DensityMatrix and is_psd: None when the
    # square, nonempty a is Hermitian and PSD within STRUCTURAL_TOL, else the
    # fault; out (n x n complex128) is scratch.  The rank-one certificate
    # proves both for a pure state.  Otherwise a + tol*I has a Cholesky
    # factor exactly when every eigenvalue of the Hermitian matrix defined by
    # tril(a) lies above -tol: half the cost of eigvalsh, with rounding ~1e-13
    # for a trace-1 matrix at n = 243, so it accepts what the certificate does
    with np.errstate(over="ignore", invalid="ignore"):
        if _rank_one_certificate(a, out):
            return None
        # max|a - a^H| <= tol, written into out; NaN (inf - inf) fails
        np.conjugate(a.T, out=out)
        np.subtract(a, out, out=out)
        if not np.maximum.reduce(np.abs(out), axis=None) <= STRUCTURAL_TOL:
            return "not Hermitian"
    np.copyto(out, a)
    out.flat[::a.shape[0] + 1] += STRUCTURAL_TOL  # the diagonal
    try:
        np.linalg.cholesky(out)
    except np.linalg.LinAlgError:
        return "not positive semidefinite"
    return None


def is_psd(m) -> bool:
    a = as_matrix(m)
    # a non-square or 0x0 matrix is not Hermitian, so not PSD
    return (a.shape[0] == a.shape[1] and a.size > 0
            and _psd_fault(a, np.empty_like(a)) is None)


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Trace out every tensor factor of ``rho`` except ``dims[keep]``.

    ``dims`` lists the positive integer factor dimensions whose product must
    equal the side of the square matrix ``rho``; anything else raises
    ValueError.
    """
    a = as_matrix(rho)
    dims = _factor_dims(dims)
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
    """Rank-1 projectors onto the columns of ``frame``; kept for the tests'
    Lueders oracle and ``benchmarks/tracer.py``, not used by the library."""
    u = as_matrix(frame)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(u.shape[1])]
