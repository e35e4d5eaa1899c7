import numpy as np
import pytest

from qcog.hilbert import (STRUCTURAL_TOL, _orthonormal_columns,
                          frame_projectors, is_psd, partial_trace)
from qcog.nosignal import LocalSeries
from qcog.sequential import (overlap_alpha, sequential_probability,
                             sequential_probability_via_states)
from qcog.states import DensityMatrix, StateError

from .conftest import haar_unitary, random_density


def _edge_frame(x):
    # Gram matrix [[1, x], [conj x, 1]]: 1 - |x|^2 rounds to 1
    return np.array([[1, x], [0, np.sqrt(1 - abs(x) ** 2)]], dtype=complex)


class TestPredicates:
    def test_hermitian(self):
        # neither matrix is pure, so each verdict comes from the Hermiticity
        # check of the positivity rule
        hermitian = np.array([[1.0, 1j], [-1j, 2.0]]) / 3
        skewed = np.array([[1.0, 1j], [1j, 2.0]]) / 3
        assert is_psd(hermitian)
        DensityMatrix(hermitian)
        assert not is_psd(skewed)
        with pytest.raises(StateError, match="^density matrix is not Hermitian$"):
            DensityMatrix(skewed)

    def test_unitary(self):
        # the rule a question's answer bases are held to, on one square frame
        rng = np.random.default_rng(3)
        u = haar_unitary(rng, 4)
        assert _orthonormal_columns(u)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
        assert not _orthonormal_columns(np.diag([1.0, 2.0]))
        # an overflow in the Gram matrix fails with no RuntimeWarning
        assert not _orthonormal_columns(np.diag([1e200, 1.0]))

    def test_psd(self):
        assert is_psd(np.diag([0.0, 1.0]))
        assert not is_psd(np.diag([-0.1, 1.1]))

    def test_psd_wild_pivots(self):
        # the rank-one certificate's pivot is the largest diagonal entry: a
        # zero or negative one, or a column that overflows when scaled by it,
        # falls through to Cholesky with no RuntimeWarning
        assert is_psd(np.zeros((3, 3)))
        assert not is_psd(-np.eye(2))
        assert not is_psd(np.array([[1.0, 1e200], [1e200, 1.0]]))
        assert not is_psd(np.array([[1e-300, 1.0], [1.0, 0.0]]))

    # verdicts at a Gram error of STRUCTURAL_TOL * scale.  Off the diagonal
    # the error is the entry x itself, exactly; on it, 1 + e/2 squared is
    # within two ulps of 1 + e, so that margin is 1e-5, not 1e-6
    @pytest.mark.parametrize("scale, accepted", [
        (1 - 1e-6, True), (1 + 1e-6, False),
        (-(1 - 1e-6), True), (-(1 + 1e-6), False)])
    @pytest.mark.parametrize("build", [
        lambda x: _edge_frame(x),
        lambda x: _edge_frame(1j * x),
        lambda x: np.stack([np.eye(2), _edge_frame(x)]),
        lambda x: np.array([[1, x], [0, 1], [0, 0]], dtype=complex),
    ], ids=["frame", "complex-frame", "stack", "subspace-basis"])
    def test_verdict_at_off_diagonal_gram_error(self, scale, accepted, build):
        assert _orthonormal_columns(build(STRUCTURAL_TOL * scale)) is accepted

    @pytest.mark.parametrize("scale, accepted", [
        (1 - 1e-5, True), (1 + 1e-5, False),
        (-(1 - 1e-5), True), (-(1 + 1e-5), False)])
    def test_verdict_at_diagonal_gram_error(self, scale, accepted):
        u = np.diag([1 + STRUCTURAL_TOL * scale / 2, 1]).astype(complex)
        assert _orthonormal_columns(u) is accepted
        assert _orthonormal_columns(np.stack([u, np.eye(2)])) is accepted
        assert _orthonormal_columns(np.stack([np.eye(2), u])) is accepted

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_and_overflow_fail(self, bad):
        # with no RuntimeWarning, for each shape the rule is given
        frame = np.array([[1, bad], [0, 1]], dtype=complex)
        basis = np.array([[1, 0], [0, 1], [bad, 0]], dtype=complex)
        assert _orthonormal_columns(frame) is False
        assert _orthonormal_columns(np.stack([np.eye(2), frame])) is False
        assert _orthonormal_columns(basis) is False

    def test_stack_of_any_layout(self):
        # the diagonal is a view at any strides, so a stack whose Gram
        # product is not C-ordered gets the verdict of its frames one by one
        rng = np.random.default_rng(5)
        frames = np.stack([haar_unitary(rng, 3) for _ in range(6)])

        def layout(f):  # a (3, 2) stack of frames, not C-ordered
            return f.reshape(2, 3, 3, 3).transpose(1, 0, 2, 3)

        assert not (layout(frames).conj().swapaxes(-1, -2)
                    @ layout(frames)).flags.c_contiguous
        assert _orthonormal_columns(layout(frames)) is True
        frames[4, 0, 1] += 1e-6
        assert [_orthonormal_columns(f) for f in frames] == [
            True, True, True, True, False, True]
        assert _orthonormal_columns(layout(frames)) is False

    @pytest.mark.parametrize("predicate", [_orthonormal_columns, is_psd])
    def test_empty_matrix_gets_a_verdict(self, predicate):
        # the verdict a non-square matrix gets, not numpy's zero-size error
        assert predicate(np.zeros((0, 0))) is False


def _contract_oracle(rho, dims, keep):
    # independent index-by-index contraction, no einsum
    n = len(dims)
    d = dims[keep]
    out = np.zeros((d, d), dtype=complex)
    idx = [range(k) for k in dims]
    import itertools
    strides = np.cumprod(([1] + list(dims[::-1]))[:-1])[::-1]

    def flat(multi):
        return int(sum(m * s for m, s in zip(multi, strides)))

    for row in itertools.product(*idx):
        for j in range(d):
            col = list(row)
            col[keep] = j
            out[row[keep], j] += rho[flat(row), flat(col)]
    return out


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        ra = random_density(rng, 2)
        rb = random_density(rng, 3)
        got = partial_trace(np.kron(ra, rb), [2, 3], keep=0)
        assert np.allclose(got, ra, atol=1e-12)

    def test_maximally_mixed(self):
        got = partial_trace(np.eye(9) / 9, [3, 3], keep=0)
        assert np.allclose(got, np.eye(3) / 3, atol=1e-14)

    def test_bell_state_marginals(self):
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1 / np.sqrt(2)  # (|01> + |10>)/sqrt(2)
        rho = np.outer(psi, psi.conj())
        for keep in (0, 1):
            got = partial_trace(rho, [2, 2], keep)
            assert np.allclose(got, np.eye(2) / 2, atol=1e-14)
            assert np.allclose(got, _contract_oracle(rho, [2, 2], keep),
                               atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 12)
        red = partial_trace(rho, [2, 3, 2], keep=1)
        assert abs(np.trace(red) - np.trace(rho)) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), [2, 3], keep=0)

    @pytest.mark.parametrize("entry, message", [
        (lambda: partial_trace(np.ones(4), [2, 2], 0),
         "expected a matrix, got ndim=1"),
        (lambda: partial_trace(np.eye(4) / 4, [2, 2], 2),
         "keep index 2 out of range for 2 factors"),
    ], ids=["not-a-matrix", "keep-out-of-range"])
    def test_fault_message(self, entry, message):
        with pytest.raises(ValueError) as err:
            entry()
        assert str(err.value) == message

    @pytest.mark.parametrize("dims", [(-3, -3), (9, 0), (1, 9, -1)])
    def test_rejects_non_positive_dims(self, dims):
        # np.prod reads (-3, -3) as 9, and numpy's reshape would then raise
        # its own "can only specify one unknown dimension"
        with pytest.raises(ValueError, match="must be positive"):
            partial_trace(np.eye(9) / 9, dims, 0)

    @pytest.mark.parametrize("dims, keep", [((3, 3.5), 0), ((3, 3), 1.0),
                                            ((3, 3), True)])
    def test_rejects_non_integer_dims_and_keep(self, dims, keep):
        # int() would read 3.5 as 3, and True as factor 1
        with pytest.raises(ValueError, match="must be an integer"):
            partial_trace(np.eye(9) / 9, dims, keep)


class TestFrameProjectors:
    def test_projectors_complete(self):
        rng = np.random.default_rng(23)
        projs = frame_projectors(haar_unitary(rng, 3))
        assert np.allclose(sum(projs), np.eye(3), atol=1e-12)


# an integer beyond float range, which float() and numpy refuse to convert
_HUGE = 10**400


@pytest.mark.parametrize("entry, message", [
    (lambda: is_psd([[_HUGE, 0], [0, 0]]), "matrix must form a numeric array"),
    (lambda: partial_trace([[_HUGE, 0], [0, 0]], [2], 0),
     "matrix must form a numeric array"),
    (lambda: LocalSeries(((0, [[_HUGE, 0], [0, 1]]),), (2, 2)),
     "matrix must form a numeric array"),
    (lambda: sequential_probability(_HUGE, 0.5), "p must form a numeric array"),
    (lambda: sequential_probability(0.5, np.array([0.5 + 0.5j])),
     "q must be real, not complex"),
    # numeric text, str or bytes, which astype would parse
    (lambda: is_psd([["1", "0"], ["0", "1"]]),
     "matrix must form a numeric array"),
    (lambda: partial_trace(np.array([[b"1", b"0"], [b"0", b"0"]]), [2], 0),
     "matrix must form a numeric array"),
    (lambda: frame_projectors([["1", "0"], ["0", "1"]]),
     "matrix must form a numeric array"),
    (lambda: LocalSeries(((0, [["1", "0"], ["0", "1"]]),), (2, 2)),
     "matrix must form a numeric array"),
    (lambda: sequential_probability("0.5", "0.25"),
     "p must form a numeric array"),
    (lambda: overlap_alpha(0.5, ["0.25"]), "q must form a numeric array"),
    (lambda: sequential_probability_via_states(0.5, b"0.25"),
     "q must form a numeric array"),
    # the same text held in an object array, beside numbers
    (lambda: is_psd(np.array([["1", 0], [0, 1]], dtype=object)),
     "matrix must form a numeric array"),
    (lambda: partial_trace(np.array([[b"1", 0], [0, 0]], dtype=object),
                           [2], 0), "matrix must form a numeric array"),
    (lambda: frame_projectors(np.array([[1, "0"], [0, 1]], dtype=object)),
     "matrix must form a numeric array"),
    (lambda: LocalSeries(((0, np.array([["1", 0], [0, 1]], dtype=object)),),
                         (2, 2)), "matrix must form a numeric array"),
    (lambda: sequential_probability(np.array("0.5", dtype=object), 0.25),
     "p must form a numeric array"),
    (lambda: overlap_alpha(0.5, np.array(["0.25", 0.5], dtype=object)),
     "q must form a numeric array"),
    (lambda: sequential_probability_via_states(
        0.5, np.array(b"0.25", dtype=object)), "q must form a numeric array"),
    # the oracle takes one cell: an array, even of one element, is refused
    (lambda: sequential_probability_via_states(np.array([0.3]), 0.5),
     "p must be a scalar"),
    (lambda: sequential_probability_via_states(np.array([0.3, 0.4]), 0.5),
     "p must be a scalar"),
], ids=["is-psd-huge-int", "partial-trace-huge-int", "local-series-huge-int",
        "sequential-huge-int", "sequential-complex", "is-psd-text",
        "partial-trace-bytes", "frame-projectors-text", "local-series-text",
        "sequential-text", "overlap-text", "via-states-bytes",
        "is-psd-object-text", "partial-trace-object-bytes",
        "frame-projectors-object-text", "local-series-object-text",
        "sequential-object-text", "overlap-object-text",
        "via-states-object-bytes", "via-states-one-element",
        "via-states-array"])
def test_array_entry_fault_message(entry, message):
    # every array entry coerces its argument by one rule, with one message
    with pytest.raises(ValueError) as err:
        entry()
    assert type(err.value) is ValueError and str(err.value) == message


def test_object_array_of_numbers_coerces():
    # an object array without text is numbers, read as numpy reads them,
    # Python integers beyond int64 included
    ints = np.array([[1, 0], [0, 10**20]], dtype=object)
    assert np.array_equal(partial_trace(ints, [2], 0), [[1.0, 0], [0, 1e20]])
    assert sequential_probability(np.array(1, dtype=object), 0.25) == 0.25
