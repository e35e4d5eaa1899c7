import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qcog import hilbert, states
from qcog.hilbert import STRUCTURAL_TOL, frame_projectors
from qcog.feasibility import (Question, SurveyChain, chain_feasibility,
                              classical_consistency_check, order_effect_check)
from qcog.framefit import (fit_chain, fit_result_to_dict, fit_transition,
                           replay)
from qcog.ingest import IngestError, _percent_row, fixture_path, load_survey
from qcog.nosignal import LocalSeries, apply_series, no_signalling_check
from qcog.states import (DensityMatrix, MeasurementError, ProbabilityVector,
                         PureState, StateError,
                         degenerate_yes_probability, lueders_update,
                         outcome_probabilities, square_root_embed)

from .conftest import haar_unitary, random_density, random_probs
from .oracles import (block_probabilities, lueders_projectors,
                      percent_row_oracle, probability_row_oracle,
                      shares_oracle)


# the entries a faulty answer row may carry
ROW_ENTRY = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -1e-13, -1e-11, float("nan"),
                     float("inf"), float("-inf"), 1e308]))


@st.composite
def percent_rows(draw):
    """1-8 rows of 1-10 answers in percent, summing to about 100, ties and
    zeros included; about one row in four carries a faulty entry, and one
    in six is empty, all -0.0, holds NaN or an infinity, or sums beyond
    float range."""
    k = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        weights[0] += sum(weights) == 0
        scale = draw(st.floats(98.0, 102.0)) / sum(weights)
        row = [w * scale for w in weights]
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(0, k - 1))] = draw(st.one_of(
                st.sampled_from([-1.0, -0.0, 1e308, 200.0]), ROW_ENTRY))
        if draw(st.integers(0, 5)) == 0:
            row = draw(st.sampled_from([
                [], [-0.0] * k, [float("nan")] * k, [float("inf")] + row,
                [float("-inf")] + row, [1e308, 1e308] + row, [1e308] * 9]))
        rows.append(row)
    return rows


def percents(rows):
    # ingest's percent rule on each row as a list of floats, each read by
    # its exact value, named as in a file "f": the first faulty row raises
    return [_percent_row("f", [float(x) for x in row], f"row {i}")
            for i, row in enumerate(rows)]


class TestProbabilityVector:
    def test_validation(self):
        with pytest.raises(StateError):
            ProbabilityVector(np.array([0.5, 0.6]))
        with pytest.raises(StateError):
            ProbabilityVector(np.array([-0.1, 1.1]))

    def test_rejects_non_finite(self):
        for values in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
            with pytest.raises(StateError, match="non-finite"):
                ProbabilityVector(np.array(values))
        with pytest.raises(IngestError, match="non-finite percentage"):
            percents([[np.nan, 50, 50]])

    def test_from_percents_rejects_bad_sum(self):
        with pytest.raises(IngestError, match="percentages sum to 97.0"):
            percents([[50, 30, 17]])

    def test_from_percents_rejects_empty(self):
        with pytest.raises(IngestError, match="percentages sum to 0.0"):
            percents([[]])

    def test_from_percents_renormalizes(self):
        # a row that passes keeps its exact proportions, as integers
        row = percents([[50, 30, 20.5]])[0]
        assert row == (100, 60, 41)
        assert abs(Question("q", row).probs.probs.sum() - 1.0) < 1e-15

    @pytest.mark.parametrize("values", [[1e308] * 3, [1e308, 1e308]])
    def test_overflowing_percentages_give_a_typed_error(self, values):
        # the sum overflows to inf inside the rule, with no RuntimeWarning
        with pytest.raises(IngestError, match="percentages sum to inf"):
            percents([values])

    @settings(max_examples=300, deadline=None)
    @given(rows=percent_rows())
    def test_rows_from_percents_matches_row_by_row(self, rows):
        # ingest's rule: each row's exact shares, as the exact percent rule
        # gives them, or its first fault, named with the same message
        expected = []
        for i, row in enumerate(rows):
            try:
                expected.append(percent_row_oracle(row))
            except StateError as exc:
                with pytest.raises(IngestError) as err:
                    percents(rows)
                assert str(err.value) == f"f: row {i}: {exc}"
                with pytest.raises(IngestError) as err:
                    percents([row])
                assert str(err.value) == f"f: row 0: {exc}"
                return
        got = percents(rows)
        assert all(type(x) is int for row in got for x in row)
        assert [shares_oracle(row) for row in got] == expected
        assert percents([rows[0]])[0] == got[0]

    @settings(max_examples=300, deadline=None)
    @given(rows=percent_rows())
    def test_accepted_percent_rows_pass_the_probability_rule(self, rows):
        # the percentage checks leave no row whose probabilities the
        # probability rule rejects: each accepted row's probabilities, built
        # again under that rule, keep their bytes
        for row in [*([r] for r in rows), rows]:
            try:
                got = percents(row)
            except IngestError:
                continue
            for r in got:
                p = Question("q", r).probs.probs
                assert ProbabilityVector(p).probs.tobytes() == p.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(row=st.lists(ROW_ENTRY, min_size=1, max_size=6))
    def test_constructor_matches_row_oracle(self, row):
        try:
            expected = probability_row_oracle(row)
        except StateError as exc:
            with pytest.raises(StateError) as err:
                ProbabilityVector(np.array(row))
            assert str(err.value) == str(exc)
        else:
            got = ProbabilityVector(np.array(row)).probs
            assert got.tobytes() == expected.tobytes()


class TestPureState:
    def test_rejects_non_finite(self):
        for values in ([np.nan, 1.0], [1.0, np.inf], [complex(0, np.nan), 1.0]):
            with pytest.raises(StateError, match="non-finite"):
                PureState(np.array(values))


class TestDensityMatrix:
    @staticmethod
    def drifted(drift):
        # (message, matrix) pairs that each break one check by ``drift``
        return (("not Hermitian", np.array([[0.5, drift], [0.0, 0.5]])),
                ("trace", np.diag([0.5, 0.5 + drift])),
                ("positive semidefinite", np.diag([1.0 + drift, -drift])))

    def test_verdicts_at_structural_tol(self):
        # each check accepts a drift of half the tolerance and rejects twice it
        for _, m in self.drifted(STRUCTURAL_TOL / 2):
            DensityMatrix(m)
        for message, m in self.drifted(2 * STRUCTURAL_TOL):
            with pytest.raises(StateError, match=message):
                DensityMatrix(m)

    def test_rejects_malformed(self):
        with pytest.raises(StateError, match="square"):
            DensityMatrix(np.ones((2, 3)) / 2)
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix(np.diag([np.nan, 1.0]))
        with pytest.raises(StateError, match="nonempty"):
            DensityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("dim", [2, 27, 243])
    def test_positivity_at_tolerance_edge(self, dim):
        # a Haar-rotated spectrum whose smallest eigenvalue sits just inside
        # and just outside -STRUCTURAL_TOL; eigvalsh is the reference rule
        rng = np.random.default_rng(dim)
        u = haar_unitary(rng, dim)
        for scale, accepted in ((0.99, True), (1.01, False)):
            low = -scale * STRUCTURAL_TOL
            spectrum = np.concatenate(
                [[low], rng.dirichlet(np.ones(dim - 1)) * (1.0 - low)])
            m = (u * spectrum) @ u.conj().T
            m = (m + m.conj().T) / 2
            assert (np.min(np.linalg.eigvalsh(m)) >= -STRUCTURAL_TOL) == accepted
            assert hilbert.is_psd(m) == accepted
            if accepted:
                # an accepted state can be measured: in its eigenbasis its
                # answers are its spectrum, the low eigenvalue clipped to 0
                got = outcome_probabilities(DensityMatrix(m),
                                            np.hsplit(u, dim)).probs
                assert got.min() == 0.0
                assert np.max(np.abs(got - np.maximum(spectrum, 0.0))) <= 1e-12
            else:
                with pytest.raises(StateError, match="positive semidefinite"):
                    DensityMatrix(m)

    def test_from_pure_is_the_unchecked_outer_product(self, monkeypatch):
        # a validated unit vector's outer product is a density matrix by
        # construction, so no check runs on it
        def forbidden(*args, **kwargs):
            raise AssertionError("validated")

        monkeypatch.setattr(states, "_psd_fault", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        rng = np.random.default_rng(43)
        amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        psi = PureState(amps / np.linalg.norm(amps))
        rho = DensityMatrix.from_pure(psi)
        a = psi.amplitudes
        assert np.array_equal(rho.matrix, np.outer(a, a.conj()))
        assert not rho.matrix.flags.writeable

    def test_accepts_random_pure_states(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            psi = rng.standard_normal(243) + 1j * rng.standard_normal(243)
            psi /= np.linalg.norm(psi)
            DensityMatrix(np.outer(psi, psi.conj()))

    def test_hermiticity_checked_once(self, monkeypatch):
        calls = []
        original = states._psd_fault

        def counted(a, out):
            calls.append(1)
            return original(a, out)

        monkeypatch.setattr(states, "_psd_fault", counted)
        DensityMatrix(np.eye(4) / 4)
        assert len(calls) == 1

    # one fault each; pure and near-pure inputs pass the rank-one certificate
    # or miss it by far, so each message comes from the check named
    _PSI = np.array([0.6, 0.8j])
    _PURE = np.outer(_PSI, _PSI.conj())

    @pytest.mark.parametrize("m, message", [
        (np.ones((2, 3)) / 2, "density matrix must be square"),
        (np.zeros((0, 0)), "density matrix must be nonempty"),
        (np.where(np.eye(2, dtype=bool), _PURE, np.nan),
         "non-finite entry in the density matrix"),
        (_PURE + np.array([[0, 1e-9], [0, 0]]), "density matrix is not Hermitian"),
        (0.9 * _PURE, f"trace is {np.trace(0.9 * _PURE).real}, not 1"),
        (np.diag([1.1, -0.1]), "density matrix is not positive semidefinite"),
    ], ids=["non-square", "empty", "nan", "non-hermitian-near-pure",
            "trace-0.9-pure", "non-psd-mixed"])
    def test_error_message_per_fault(self, m, message):
        with pytest.raises(StateError) as err:
            DensityMatrix(m)
        assert str(err.value) == message

    # several faults at once; each message is the one the checks gave when
    # they ran finiteness, then trace, then positivity, so the first fault
    # in that order is named
    _NAN_CORNER = np.outer([0.6, 0.0, 0.8], [0.6, 0.0, 0.8]).astype(complex)
    _NAN_CORNER[0, 2] = _NAN_CORNER[2, 0] = np.nan

    @pytest.mark.parametrize("m, message", [
        ([[0.3, np.nan], [np.nan, 0.3]], "non-finite entry in the density matrix"),
        ([[np.nan, 0], [0, 0.2]], "non-finite entry in the density matrix"),
        ([[0.5, np.inf], [0, 0.5]], "non-finite entry in the density matrix"),
        ([[0.5, np.inf], [np.inf, 0.5]], "non-finite entry in the density matrix"),
        ([[0.5, 1j * np.inf], [0, 0.5]], "non-finite entry in the density matrix"),
        ([[np.nan, 0], [0, 0.5]], "non-finite entry in the density matrix"),
        ([[np.inf, 0], [0, -np.inf]], "non-finite entry in the density matrix"),
        (_NAN_CORNER, "non-finite entry in the density matrix"),
        ([[0.4, 0.1], [0, 0.4]], "trace is 0.8, not 1"),
        ([[1.2, 0], [0, -0.1]], "trace is 1.0999999999999999, not 1"),
        ([[1e200, 1e200], [1e200, 1e200]], "trace is 2e+200, not 1"),
        ([[0.5, 1e200], [1e200, 0.5]], "density matrix is not positive semidefinite"),
        ([[0.5, 1e200], [-1e200, 0.5]], "density matrix is not Hermitian"),
        ([[0.5, 1e308], [-1e308, 0.5]], "density matrix is not Hermitian"),
    ], ids=["nan-off-diagonal-bad-trace", "nan-diagonal-bad-trace",
            "inf-off-diagonal", "inf-both-off-diagonal",
            "complex-inf-off-diagonal", "nan-diagonal", "inf-minus-inf-diagonal",
            "nan-corner-of-pure", "non-hermitian-bad-trace",
            "non-psd-bad-trace", "1e200-entries", "1e200-off-diagonal",
            "1e200-skew", "1e308-skew"])
    def test_multi_fault_message_table(self, m, message):
        with pytest.raises(StateError) as err:
            DensityMatrix(np.array(m, dtype=complex))
        assert str(err.value) == message

    @pytest.mark.parametrize("m", [np.eye(3) / 3, _PURE],
                             ids=["mixed", "pure"])
    def test_accepted_state_skips_the_finiteness_scan(self, m, monkeypatch):
        # the positivity rule accepts only finite matrices, so an accepted
        # state is never scanned for NaN or inf
        def forbidden(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(np, "isfinite", forbidden)
        assert np.array_equal(DensityMatrix(m).matrix, m)

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    @pytest.mark.parametrize("layout", ["c-order", "f-order", "real",
                                        "read-only", "list"])
    def test_never_writes_to_or_aliases_input(self, pure, layout):
        # the certificate writes its residual into the output buffer, never
        # into the input, and the state owns a frozen copy
        rng = np.random.default_rng(47)
        dim = 9
        if layout == "real":
            psi = rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            x = np.outer(psi, psi) if pure else np.diag(random_probs(rng, dim))
        else:
            psi = _pure(rng, dim)
            x = np.outer(psi, psi.conj()) if pure else random_density(rng, dim)
        if layout == "f-order":
            x = np.asfortranarray(x)
        elif layout == "read-only":
            x.setflags(write=False)
        elif layout == "list":
            x = x.tolist()
        expected = np.array(x, dtype=np.complex128).tobytes()
        writeable = x.flags.writeable if isinstance(x, np.ndarray) else None
        rho = DensityMatrix(x)
        assert rho.matrix is not x
        assert rho.matrix.tobytes() == expected
        assert np.array(x, dtype=np.complex128).tobytes() == expected
        assert not rho.matrix.flags.writeable
        if isinstance(x, np.ndarray):
            assert not np.shares_memory(rho.matrix, x)
            assert x.flags.writeable == writeable


def _pure(rng, dim, zeros=0):
    # a random unit vector whose first ``zeros`` entries vanish
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi[:zeros] = 0
    return psi / np.linalg.norm(psi)


def _positivity_verdicts(m):
    # the DensityMatrix and is_psd verdicts, which must agree
    try:
        DensityMatrix(m)
        accepted = True
    except StateError as err:
        assert "positive semidefinite" in str(err)
        accepted = False
    assert hilbert.is_psd(m) == accepted
    return accepted


class TestRankOneCertificate:
    """A pure state is accepted by the O(n^2) rank-one certificate; anything
    it does not certify goes to Cholesky of rho + tol*I, so the verdict is
    the one eigvalsh gives, on both sides of -STRUCTURAL_TOL."""

    @pytest.mark.parametrize("dim", [2, 27, 243])
    def test_pure_state_never_reaches_cholesky(self, dim, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Cholesky ran")

        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        psi = _pure(np.random.default_rng(dim), dim)
        assert _positivity_verdicts(np.outer(psi, psi.conj()))

    @pytest.mark.parametrize("dim", [2, 27, 243])
    def test_negative_direction_at_tolerance_edge(self, dim):
        # psi psi^H - c tol phi phi^H with phi orthogonal to psi, renormalised:
        # its smallest eigenvalue is -c tol / (1 - c tol)
        rng = np.random.default_rng(dim + 1)
        psi, phi = _pure(rng, dim), _pure(rng, dim)
        phi = phi - np.vdot(psi, phi) * psi
        phi /= np.linalg.norm(phi)
        for c, accepted in ((0.99, True), (1.01, False)):
            m = (np.outer(psi, psi.conj())
                 - c * STRUCTURAL_TOL * np.outer(phi, phi.conj()))
            m /= 1.0 - c * STRUCTURAL_TOL
            low = np.min(np.linalg.eigvalsh(m))
            assert (low >= -STRUCTURAL_TOL) == accepted
            assert _positivity_verdicts(m) == accepted

    @pytest.mark.parametrize("dim", [27, 243])
    def test_only_the_lower_triangle_counts(self, dim):
        # a pure state that vanishes on indices 0-2, plus 0.9 tol times a
        # pattern with eigenvalues (1, 1, -2) on 0-2 in one triangle only:
        # Hermitian within tolerance, and its smallest eigenvalue -1.8 tol is
        # seen only from that triangle
        psi = _pure(np.random.default_rng(dim + 2), dim, zeros=3)
        pattern = 0.9 * STRUCTURAL_TOL * np.array([[0, 1, 1], [1, 0, -1],
                                                   [1, -1, 0]])
        for strict in (np.triu(pattern, 1), np.tril(pattern, -1)):
            m = np.outer(psi, psi.conj())
            m[:3, :3] += strict
            lower, upper = (np.min(np.linalg.eigvalsh(m, UPLO=uplo))
                            >= -STRUCTURAL_TOL for uplo in "LU")
            assert lower != upper
            assert _positivity_verdicts(m) == lower

    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([2, 3, 9, 27]), rank=st.integers(1, 3),
           scale=st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_low_rank_verdict_matches_eigvalsh(self, seed, dim, rank, scale):
        # a random rank-r state plus scale * tol times a Hermitian matrix of
        # spectral norm 1, away from the rounding band around -tol
        rng = np.random.default_rng(seed)
        vecs = np.stack([_pure(rng, dim) for _ in range(min(rank, dim))], 1)
        m = (vecs * rng.dirichlet(np.ones(vecs.shape[1]))) @ vecs.conj().T
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = g + g.conj().T
        m = m + scale * STRUCTURAL_TOL * g / np.max(np.abs(np.linalg.eigvalsh(g)))
        m = (m + m.conj().T) / 2
        low = np.min(np.linalg.eigvalsh(m))
        assume(abs(low + STRUCTURAL_TOL) >= 1e-3 * STRUCTURAL_TOL)
        assert hilbert.is_psd(m) == (low > -STRUCTURAL_TOL)


    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([2, 3, 9, 27]), skew=st.booleans(),
           edge=st.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_certificate_proves_hermiticity(self, seed, dim, skew, edge):
        # a pure state plus a Hermitian or anti-Hermitian perturbation E of
        # Frobenius norm edge * tol / (2 sqrt 2), the certificate's edge; E
        # vanishes on the pivot's row and column, so the certificate's
        # residual is E itself.  Whatever it accepts is Hermitian and PSD
        # within tolerance, so DensityMatrix may skip those checks on it
        rng = np.random.default_rng(seed)
        psi = _pure(rng, dim)
        j = int(np.argmax(np.abs(psi)))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        e = g - g.conj().T if skew else g + g.conj().T
        e[j, :] = e[:, j] = 0
        e *= edge * STRUCTURAL_TOL / (2 * np.sqrt(2)) / np.linalg.norm(e)
        m = np.outer(psi, psi.conj()) + e
        accepted = hilbert._rank_one_certificate(m, np.empty_like(m))
        assert accepted == (edge < 1)
        if accepted:
            assert np.max(np.abs(m - m.conj().T)) <= STRUCTURAL_TOL
            for uplo in "LU":
                assert np.min(np.linalg.eigvalsh(m, UPLO=uplo)) >= -STRUCTURAL_TOL


class TestSquareRootEmbed:
    def test_componentwise(self):
        psi = square_root_embed(ProbabilityVector(np.array([0.25, 0.75])))
        assert np.allclose(psi.amplitudes, [0.5, np.sqrt(0.75)], atol=1e-15)

    def test_deterministic(self):
        psi = square_root_embed(ProbabilityVector(np.array([1.0, 0.0, 0.0])))
        assert np.allclose(psi.amplitudes, [1, 0, 0])

    def test_final_question_round_trip(self):
        p = ProbabilityVector(np.array([0.45, 0.17, 0.38]))
        psi = square_root_embed(p)
        assert np.max(np.abs(np.abs(psi.amplitudes) ** 2 - p.probs)) < 1e-12

    def test_certified_with_the_bits_of_the_checked_route(self, monkeypatch):
        # a distribution's square roots are a unit vector within 5e-10: the
        # embedding builds its PureState unchecked, with the same bits
        rng = np.random.default_rng(67)
        rows = [random_probs(rng, d) for d in range(1, 10)]
        want = [PureState(np.sqrt(p).astype(np.complex128)).amplitudes
                for p in rows]
        rows = [ProbabilityVector(p) for p in rows]

        def forbidden(self):
            raise AssertionError("PureState validated")

        monkeypatch.setattr(PureState, "__post_init__", forbidden)
        for p, w in zip(rows, want):
            a = square_root_embed(p).amplitudes
            assert a.tobytes() == w.tobytes() and not a.flags.writeable


def _questions_and_states(seed):
    # random rank patterns at d = 2..9, on pure and mixed states: one answer
    # spanning the space, every answer of rank 1, and ten random patterns
    # with at least one degenerate answer unless k = d
    rng = np.random.default_rng(seed)
    for d in range(2, 10):
        for k in (1, d, *rng.integers(1, d + 1, size=10)):
            cuts = np.sort(rng.choice(np.arange(1, d), k - 1, replace=False))
            answers = np.hsplit(haar_unitary(rng, d), cuts)
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for rho in (DensityMatrix.from_pure(PureState(
                            psi / np.linalg.norm(psi))),
                        DensityMatrix(random_density(rng, d))):
                yield answers, rho


class TestOutcomeProbabilities:
    def test_eigenbasis_case(self):
        rho = DensityMatrix(np.diag([0.81, 0.04, 0.15]).astype(complex))
        got = outcome_probabilities(rho, np.hsplit(np.eye(3), 3))
        assert np.allclose(got.probs, [0.81, 0.04, 0.15], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(23)
        psi = PureState((lambda a: a / np.linalg.norm(a))(
            rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        rho = DensityMatrix.from_pure(psi)
        got = outcome_probabilities(rho, np.hsplit(haar_unitary(rng, 3), 3))
        assert abs(got.probs.sum() - 1.0) < 1e-12

    def test_convex_combination_oracle(self):
        # expectations are weighted averages sum_i r_i p_i of the spectrum
        rng = np.random.default_rng(29)
        rho = DensityMatrix(np.diag([0.81, 0.04, 0.15]).astype(complex))
        for _ in range(50):
            u = haar_unitary(rng, 3)
            got = outcome_probabilities(rho, np.hsplit(u, 3)).probs
            oracle = np.array(
                [sum(abs(u[k, j]) ** 2 * d
                     for k, d in enumerate([0.81, 0.04, 0.15]))
                 for j in range(3)])
            assert np.allclose(got, oracle, atol=1e-12)
            assert np.all(got >= 0.04 - 1e-12)
            assert np.all(got <= 0.81 + 1e-12)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(MeasurementError,
                           match=r"^answer 0 has shape \(2, 1\), not \(3, r\)$"):
            outcome_probabilities(rho, np.hsplit(np.eye(2), 2))

    def test_rejects_non_orthonormal_frame(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(MeasurementError, match="orthonormal"):
            outcome_probabilities(rho, np.hsplit(np.array([[1, 1], [0, 0]]), 2))

    def test_matches_block_oracle(self):
        # a degenerate answer's probability is its block's trace, summed
        # by the oracle one projector B B^H at a time
        for answers, rho in _questions_and_states(61):
            got = outcome_probabilities(rho, answers).probs
            want = block_probabilities(rho.matrix, answers)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_rank_one_answers_give_the_frame_einsum_bitwise(self):
        # one answer per column returns each column's expectation as is
        rng = np.random.default_rng(67)
        for d in range(1, 10):
            for rho in (DensityMatrix.from_pure(PureState(_pure(rng, d))),
                        DensityMatrix(random_density(rng, d))):
                u = haar_unitary(rng, d)
                got = outcome_probabilities(rho, np.hsplit(u, d)).probs
                want = ProbabilityVector(np.einsum(
                    "ij,ik,kj->j", u.conj(), rho.matrix, u).real).probs
                assert np.array_equal(got, want)

    def test_same_bits_as_the_probability_rule(self):
        # the clipped block traces are the bits the caller-row rule gives
        # wherever it accepts them
        for answers, rho in _questions_and_states(79):
            u = np.concatenate(answers, axis=1)
            answer = np.repeat(np.arange(len(answers)),
                               [b.shape[1] for b in answers])
            p = np.einsum("ij,ik,kj->j", u.conj(), rho.matrix, u).real
            want = ProbabilityVector(np.bincount(
                answer, weights=p, minlength=len(answers))).probs
            got = outcome_probabilities(rho, answers).probs
            assert got.tobytes() == want.tobytes()

    def test_repeating_a_question_repeats_its_answers(self):
        for answers, rho in _questions_and_states(71):
            once = outcome_probabilities(rho, answers).probs
            after = outcome_probabilities(lueders_update(rho, answers),
                                          answers).probs
            assert np.max(np.abs(after - once)) <= 1e-14

    def test_empty_answer_gets_probability_zero(self):
        # an answer of rank 0 is never given, wherever it sits
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        empty = np.zeros((2, 0))
        got = outcome_probabilities(rho, [empty, np.eye(2), empty]).probs
        assert np.array_equal(got, [0.0, 1.0, 0.0])


class TestLuedersUpdate:
    def test_pure_state_becomes_mixture(self):
        p = 0.7
        psi = square_root_embed(ProbabilityVector(np.array([p, 1 - p])))
        rho = DensityMatrix.from_pure(psi)
        out = lueders_update(rho, np.hsplit(np.eye(2), 2))
        assert np.allclose(out.matrix, np.diag([p, 1 - p]), atol=1e-14)

    def test_commuting_case_unchanged(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        out = lueders_update(rho, np.hsplit(np.eye(3), 3))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        rho = DensityMatrix.from_pure(PureState(
            (lambda a: a / np.linalg.norm(a))(
                rng.standard_normal(3) + 1j * rng.standard_normal(3))))
        answers = np.hsplit(haar_unitary(rng, 3), 3)
        once = lueders_update(rho, answers)
        twice = lueders_update(once, answers)
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12

    def test_rejects_incomplete_projectors(self):
        # one answer, spanned by e_0, leaves e_1 unanswered
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(MeasurementError, match="column count 1 "):
            lueders_update(rho, [np.array([[1.0], [0.0]])])

    def test_rejects_non_orthogonal(self):
        rho = DensityMatrix(np.eye(2) / 2)
        v = np.array([[1.0], [1.0]]) / np.sqrt(2)
        with pytest.raises(MeasurementError, match="not orthonormal"):
            lueders_update(rho, [v, np.array([[1.0], [0.0]])])

    def test_rejects_oblique_projectors(self):
        # one degenerate answer whose basis spans the space but is oblique:
        # its projector would be idempotent and complete, but not Hermitian
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        with pytest.raises(MeasurementError, match="not orthonormal"):
            lueders_update(rho, [np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_purity_never_increases(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            psi = (lambda a: a / np.linalg.norm(a))(
                rng.standard_normal(3) + 1j * rng.standard_normal(3))
            rho = DensityMatrix.from_pure(PureState(psi))
            out = lueders_update(rho, np.hsplit(haar_unitary(rng, 3), 3))
            assert out.purity() <= rho.purity() + 1e-12

    def test_contraction_of_subsequent_statistics(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_probs(rng, 3)
            rho = DensityMatrix(np.diag(p).astype(complex))
            out = lueders_update(rho, np.hsplit(haar_unitary(rng, 3), 3))
            stats = outcome_probabilities(
                out, np.hsplit(haar_unitary(rng, 3), 3)).probs
            assert np.max(stats) <= np.max(p) + 1e-12
            assert np.min(stats) >= np.min(p) - 1e-12

    def test_commuting_frames_pure_equals_mixed(self):
        # same eigenbasis everywhere: superposition vs mixture identical
        rng = np.random.default_rng(43)
        p = ProbabilityVector(random_probs(rng, 3))
        pure = DensityMatrix.from_pure(square_root_embed(p))
        mixed = DensityMatrix(np.diag(p.probs))
        frame = np.eye(3)
        answers = np.hsplit(frame, 3)
        for _ in range(3):
            sp = outcome_probabilities(lueders_update(pure, answers), answers)
            sm = outcome_probabilities(lueders_update(mixed, answers), answers)
            assert np.allclose(sp.probs, sm.probs, atol=1e-12)
            pure = lueders_update(pure, answers)
            mixed = lueders_update(mixed, answers)

    def test_matches_projector_oracle(self):
        for answers, rho in _questions_and_states(47):
            got = lueders_update(rho, answers).matrix
            want = lueders_projectors(
                rho.matrix, [b @ b.conj().T for b in answers])
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("d", [2, 50])
    def test_accepts_its_output_at_the_question_tolerance(self, d):
        # each answer basis has norm^2 1 + 0.9e-10, inside the question
        # rule, which moved the output's trace by 1.8e-10, past the state
        # rule; such an output is rescaled to trace 1
        answers = np.hsplit(np.eye(d) * np.sqrt(1 + 0.9e-10), d)
        out = lueders_update(DensityMatrix(np.eye(d) / d), answers)
        assert abs(out.matrix.trace().real - 1.0) <= 1e-15
        assert np.max(np.abs(out.matrix - np.eye(d) / d)) <= 1e-16

    def test_output_within_the_trace_rule_keeps_its_bits(self):
        # the rescaling touches only an output whose trace is off by more
        # than STRUCTURAL_TOL; any other is the symmetrised pinching itself
        for answers, rho in _questions_and_states(61):
            _, want = _pinching(rho, answers)
            assert abs(want.trace().real - 1.0) <= STRUCTURAL_TOL
            assert lueders_update(rho, answers).matrix.tobytes() == want.tobytes()

    def test_one_answer_leaves_state_unchanged(self):
        rng = np.random.default_rng(59)
        for d in range(1, 10):
            rho = DensityMatrix(random_density(rng, d))
            out = lueders_update(rho, [np.eye(d)])
            assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-16


def _pinching(rho, answers):
    # U^H rho U and the update's output, step by step as lueders_update
    # computes them, before any state check: the route that validates
    u = np.concatenate(answers, axis=1)
    blocks = np.repeat(np.arange(len(answers)), [b.shape[1] for b in answers])
    m = u.conj().T @ rho.matrix @ u
    out = u @ (m * (blocks[:, None] == blocks)) @ u.conj().T
    out = (out + out.conj().T) / 2
    trace = out.trace().real
    if abs(trace - 1.0) > STRUCTURAL_TOL:
        out /= trace
    return m, out


@contextlib.contextmanager
def _validations():
    # a list with one entry per DensityMatrix.__post_init__ run inside the
    # block: none means the output was certified, not validated
    calls, original = [], DensityMatrix.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    DensityMatrix.__post_init__ = counted
    try:
        yield calls
    finally:
        DensityMatrix.__post_init__ = original


def _verdict(build):
    # the state rule's verdict on what build() returns: its bits, or the
    # error's type and message
    try:
        return build().matrix.tobytes()
    except StateError as err:
        return type(err), str(err)


# the largest Gram error a frame may carry and pass the question rule
_GRAM_EDGE = STRUCTURAL_TOL * (1 - 1e-6)


@st.composite
def _certificate_cases(draw):
    # a validated state at d = 2..6, pure, mixed, or at the positivity edge
    # (one eigenvalue -0.9 tol), and a rank-one question in a random frame
    # or the state's eigenbasis: unitary to rounding, or with Gram error
    # _GRAM_EDGE on the diagonal (every column scaled) or everywhere (a
    # rank-one shear, whose Gram error has spectral norm ~d _GRAM_EDGE)
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["pure", "mixed", "edge"]))
    v = haar_unitary(rng, d)
    lam = {"pure": np.eye(d)[0], "mixed": rng.dirichlet(np.ones(d)),
           "edge": np.append(rng.dirichlet(np.ones(d - 1))
                             * (1 + 0.9 * STRUCTURAL_TOL),
                             -0.9 * STRUCTURAL_TOL)}[kind]
    m = (v * lam) @ v.conj().T
    u = v if draw(st.booleans()) else haar_unitary(rng, d)
    gram = draw(st.sampled_from(["unitary", "scaled", "sheared"]))
    if gram == "scaled":
        u = u * np.sqrt(1 + _GRAM_EDGE)
    elif gram == "sheared":
        s = np.exp(2j * np.pi * rng.uniform(size=d))
        u = u @ (np.eye(d) + _GRAM_EDGE / 2 * np.outer(s, s.conj()))
    # rounding in the Gram product can take an edge frame past the rule
    assume(hilbert._orthonormal_columns(u))
    return DensityMatrix((m + m.conj().T) / 2), np.hsplit(u, d)


class TestCertifiedLuedersOutput:
    """A Lueders update whose answers all have rank 1 returns its output
    unchecked when min Re diag(U^H rho U) >= -tol/2: by Ostrowski the state
    rule would accept it.  Any other output goes through that rule."""

    @given(_certificate_cases())
    @settings(max_examples=300, deadline=None)
    def test_certified_output_passes_the_state_rule(self, case):
        rho, answers = case
        m, want = _pinching(rho, answers)
        with _validations() as calls:
            got = _verdict(lambda: lueders_update(rho, answers))
        certified = m.diagonal().real.min() >= -STRUCTURAL_TOL / 2
        assert len(calls) == (0 if certified else 1)
        # the uncertified route's verdict, and bits when it accepts
        assert got == _verdict(lambda: DensityMatrix(want))
        if certified:
            DensityMatrix(np.frombuffer(got, np.complex128).reshape(m.shape))

    def test_declined_output_is_validated_and_accepted(self):
        # c = (1 + 0.9 tol, -0.9 tol) is below -tol/2: the state rule
        # checks the output, and accepts it
        rho = DensityMatrix(np.diag([1 + 0.9 * STRUCTURAL_TOL,
                                     -0.9 * STRUCTURAL_TOL]))
        with _validations() as calls:
            out = lueders_update(rho, np.hsplit(np.eye(2), 2))
        assert len(calls) == 1
        assert out.matrix.tobytes() == rho.matrix.tobytes()

    def test_declined_output_gets_the_state_rules_verdict(self):
        # an eigenvalue 1e-11 tol inside the edge, read by a frame whose
        # second column has norm^2 1 + 0.9 tol: the output's eigenvalue
        # moves past -tol, and the state rule names the fault
        a = STRUCTURAL_TOL * (1 - 1e-11)
        rho = DensityMatrix(np.diag([1 + a, -a]))
        answers = np.hsplit(np.diag([1, np.sqrt(1 + 0.9 * STRUCTURAL_TOL)]), 2)
        _, want = _pinching(rho, answers)
        with pytest.raises(StateError) as parent:
            DensityMatrix(want)
        with _validations() as calls, pytest.raises(StateError) as err:
            lueders_update(rho, answers)
        assert len(calls) == 1
        assert str(err.value) == str(parent.value) == (
            "density matrix is not positive semidefinite")

    @pytest.mark.parametrize("widths, certified", [
        ((0, 2), False), ((2, 0), False), ((1, 1), True), ((0, 1, 1), True)],
        ids=["0-2", "2-0", "1-1", "0-1-1"])
    def test_rule_is_no_answer_of_rank_two_or_more(self, widths, certified):
        # k == d does not make a question rank-one: (0, 2) has two answers
        # at d = 2, one of them degenerate.  An empty answer adds nothing
        # to the block mask, so (0, 1, 1) pinches to U diag(c) U^H
        rho = DensityMatrix(random_density(np.random.default_rng(71), 2))
        answers = np.hsplit(haar_unitary(np.random.default_rng(73), 2),
                            np.cumsum(widths)[:-1])
        with _validations() as calls:
            out = lueders_update(rho, answers)
        assert len(calls) == (0 if certified else 1)
        assert out.matrix.tobytes() == DensityMatrix(
            _pinching(rho, answers)[1]).matrix.tobytes()

    def test_one_degenerate_answer_is_validated_once(self):
        # benchmarks/selftest.py traces DensityMatrix validation inside this
        # call: a question with one rank-2 answer keeps its state check
        rho = DensityMatrix(np.eye(2) / 2)
        with _validations() as calls:
            lueders_update(rho, [np.eye(2)])
        assert len(calls) == 1


@st.composite
def _question_cases(draw):
    # a random frame and state at d = 1..4, pure or mixed, and a block
    # pattern of answers of rank >= 1 each
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, d))
    cuts = np.sort(rng.choice(np.arange(1, d), k - 1, replace=False))
    answers = np.hsplit(haar_unitary(rng, d), cuts)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    rho = (DensityMatrix.from_pure(PureState(psi / np.linalg.norm(psi)))
           if draw(st.booleans()) else DensityMatrix(random_density(rng, d)))
    return rho, answers


class TestCheckedQuestion:
    """A question checked once by the question rule is trusted from then on:
    the update and the read-out compare only its dimension."""

    @given(_question_cases())
    @settings(max_examples=200, deadline=None)
    @seed(20241)
    def test_checked_question_keeps_the_bits(self, case):
        rho, answers = case
        checked = states._question(answers, rho.dim)
        assert (outcome_probabilities(rho, checked).probs.tobytes()
                == outcome_probabilities(rho, answers).probs.tobytes())
        assert (lueders_update(rho, checked).matrix.tobytes()
                == lueders_update(rho, answers).matrix.tobytes())

    def test_checked_question_is_frozen_and_not_checked_again(self,
                                                              gram_checks):
        checked = states._question(np.hsplit(np.eye(3), [1]), 3)
        u, answer, k = checked
        assert not (u.flags.writeable or answer.flags.writeable)
        assert k == 2 and len(gram_checks) == 1
        assert states._question(checked, 3) is checked
        lueders_update(_MIXED3, checked)
        outcome_probabilities(_MIXED3, checked)
        assert len(gram_checks) == 1

    @pytest.mark.parametrize("widths", [(1, 1, 1), (2, 1), (0, 1, 2)],
                             ids=["1-1-1", "2-1", "0-1-2"])
    @pytest.mark.parametrize("ask", [lueders_update, outcome_probabilities],
                             ids=["lueders_update", "outcome_probabilities"])
    def test_wrong_dimension_gives_the_raw_answers_message(self, ask, widths):
        answers = np.hsplit(np.eye(3), np.cumsum(widths)[:-1])
        checked = states._question(answers, 3)
        with pytest.raises(MeasurementError) as raw:
            ask(_MIXED, answers)
        with pytest.raises(MeasurementError) as err:
            ask(_MIXED, checked)
        assert str(err.value) == str(raw.value) == (
            f"answer 0 has shape (3, {widths[0]}), not (2, r)")


_MIXED = DensityMatrix(np.eye(2) / 2)
_HALVES = (50, 50)
_TABLE1 = load_survey(fixture_path("table1.json"))
# a question is its answers' bases: a projector list, a bare frame or a list
# of its columns is rejected, never read as one
_HAAR3 = haar_unitary(np.random.default_rng(53), 3)
_RANK_ONE = np.outer(_HAAR3[:, 0], _HAAR3[:, 0].conj())
_MIXED3 = DensityMatrix(np.eye(3) / 3)
# an answer that is not a numeric array: its rows differ in length
_RAGGED = [[[1], [0]], [[0], [1, 2]]]
# an integer beyond float range, which float() and numpy refuse to convert
_HUGE = 10**400


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
@pytest.mark.parametrize("entry, error", [
    (lambda m: lueders_update(_MIXED, [m]), MeasurementError),
    (lambda m: outcome_probabilities(_MIXED, [m]), MeasurementError),
    (lambda m: LocalSeries(((0, m),), (2, 2)), ValueError),
    (lambda m: degenerate_yes_probability(_MIXED, list(m.T)), MeasurementError),
], ids=["lueders_update", "outcome_probabilities", "LocalSeries",
        "degenerate_yes_probability"])
def test_non_finite_measurement_gives_typed_error(entry, error, bad):
    # inf - inf and inf * 0 are NaN, and 1e200 squared overflows to inf;
    # either fails every structural check.  A RuntimeWarning on the way is an
    # exception under -W error, and a NaN that passed through would be a
    # silent wrong answer
    with pytest.raises(error):
        entry(np.diag([bad, 1.0]))


@pytest.mark.parametrize("entry, error, message", [
    (lambda: ProbabilityVector(np.array([])), StateError,
     "probabilities must form a nonempty 1-d vector"),
    (lambda: ProbabilityVector(np.full((1, 2), 0.5)), StateError,
     "probabilities must form a nonempty 1-d vector"),
    (lambda: PureState(np.array([])), StateError,
     "amplitudes must form a nonempty 1-d vector"),
    (lambda: PureState(np.eye(2)), StateError,
     "amplitudes must form a nonempty 1-d vector"),
    (lambda: PureState(np.array([0.0, 1.0 + 2e-6])), StateError,
     "amplitude norm 1.000002 too far from 1"),
    (lambda: lueders_update(_MIXED, np.hsplit(np.eye(3), 3)),
     MeasurementError, "answer 0 has shape (3, 1), not (2, r)"),
    (lambda: lueders_update(_MIXED3, [_RANK_ONE, np.eye(3) - _RANK_ONE]),
     MeasurementError,
     "the answer bases' column count 6 is not the state dimension 3"),
    (lambda: lueders_update(_MIXED3, frame_projectors(_HAAR3)),
     MeasurementError,
     "the answer bases' column count 9 is not the state dimension 3"),
    (lambda: lueders_update(_MIXED3, _HAAR3), MeasurementError,
     "answer 0 has shape (3,), not (3, r)"),
    (lambda: lueders_update(_MIXED3, list(_HAAR3.T)), MeasurementError,
     "answer 0 has shape (3,), not (3, r)"),
    (lambda: outcome_probabilities(_MIXED3, frame_projectors(_HAAR3)),
     MeasurementError,
     "the answer bases' column count 9 is not the state dimension 3"),
    (lambda: outcome_probabilities(_MIXED3, _HAAR3), MeasurementError,
     "answer 0 has shape (3,), not (3, r)"),
    (lambda: outcome_probabilities(_MIXED3, list(_HAAR3.T)), MeasurementError,
     "answer 0 has shape (3,), not (3, r)"),
    (lambda: lueders_update(_MIXED, _RAGGED), MeasurementError,
     "answer bases must form a numeric array"),
    (lambda: lueders_update(_MIXED, ["ab", "cd"]), MeasurementError,
     "answer bases must form a numeric array"),
    (lambda: outcome_probabilities(_MIXED, _RAGGED), MeasurementError,
     "answer bases must form a numeric array"),
    (lambda: outcome_probabilities(_MIXED, ["ab", "cd"]), MeasurementError,
     "answer bases must form a numeric array"),
    (lambda: degenerate_yes_probability(_MIXED3, ["abc"]), MeasurementError,
     "subspace basis must form a numeric array"),
    (lambda: degenerate_yes_probability(_MIXED3, [[1, [0], 0]]),
     MeasurementError, "subspace basis must form a numeric array"),
    (lambda: DensityMatrix([[1, 0], [0]]), StateError,
     "density matrix must form a numeric array"),
    (lambda: DensityMatrix("ab"), StateError,
     "density matrix must form a numeric array"),
    (lambda: DensityMatrix([1, 0]), StateError,
     "density matrix must be square"),
    (lambda: ProbabilityVector([[1], [0, 1]]), StateError,
     "probabilities must form a numeric array"),
    (lambda: ProbabilityVector(["a", "b"]), StateError,
     "probabilities must form a numeric array"),
    (lambda: ProbabilityVector(np.array([0.5 + 0.3j, 0.5])), StateError,
     "probabilities must be real, not complex"),
    (lambda: PureState([[1], [0, 1]]), StateError,
     "amplitudes must form a numeric array"),
    (lambda: lueders_update(_MIXED, 5), MeasurementError,
     "answer 0 has shape (), not (2, r)"),
    (lambda: outcome_probabilities(_MIXED, None), MeasurementError,
     "answer 0 has shape (), not (2, r)"),
    (lambda: ProbabilityVector([_HUGE, 0]), StateError,
     "probabilities must form a numeric array"),
    (lambda: PureState([_HUGE, 0]), StateError,
     "amplitudes must form a numeric array"),
    (lambda: DensityMatrix([[_HUGE, 0], [0, 0]]), StateError,
     "density matrix must form a numeric array"),
    (lambda: lueders_update(_MIXED, [[[_HUGE], [0]], [[0], [1]]]),
     MeasurementError, "answer bases must form a numeric array"),
    (lambda: outcome_probabilities(_MIXED, [[[_HUGE], [0]], [[0], [1]]]),
     MeasurementError, "answer bases must form a numeric array"),
    (lambda: degenerate_yes_probability(_MIXED, [[_HUGE, 0]]),
     MeasurementError, "subspace basis must form a numeric array"),
    # numeric text, which astype would parse, is not a numeric array
    (lambda: ProbabilityVector(["0.5", "0.5"]), StateError,
     "probabilities must form a numeric array"),
    (lambda: PureState(np.array([b"1", b"0"])), StateError,
     "amplitudes must form a numeric array"),
    (lambda: DensityMatrix([["0.5", "0"], ["0", "0.5"]]), StateError,
     "density matrix must form a numeric array"),
    (lambda: lueders_update(_MIXED, [[["1"], ["0"]], [["0"], ["1"]]]),
     MeasurementError, "answer bases must form a numeric array"),
    (lambda: outcome_probabilities(_MIXED, [[["1"], ["0"]], [["0"], ["1"]]]),
     MeasurementError, "answer bases must form a numeric array"),
    (lambda: degenerate_yes_probability(_MIXED, [["1", "0"]]),
     MeasurementError, "subspace basis must form a numeric array"),
    # the same text held in an object array, beside numbers, which astype
    # would parse too
    (lambda: ProbabilityVector(np.array(["0.5", 0.5], dtype=object)),
     StateError, "probabilities must form a numeric array"),
    (lambda: PureState(np.array([b"1", 0], dtype=object)), StateError,
     "amplitudes must form a numeric array"),
    (lambda: DensityMatrix(np.array([["0.5", 0], [0, "0.5"]], dtype=object)),
     StateError, "density matrix must form a numeric array"),
    (lambda: lueders_update(
        _MIXED, [np.array([["1"], [0]], dtype=object), [[0], [1]]]),
     MeasurementError, "answer bases must form a numeric array"),
    (lambda: outcome_probabilities(
        _MIXED, [np.array([["1"], [0]], dtype=object), [[0], [1]]]),
     MeasurementError, "answer bases must form a numeric array"),
    (lambda: degenerate_yes_probability(
        _MIXED, np.array([[b"1", 0]], dtype=object)),
     MeasurementError, "subspace basis must form a numeric array"),
    # a state that is not a DensityMatrix, before any attribute is read
    (lambda: lueders_update(np.eye(2) / 2, [np.eye(2)]), ValueError,
     "state must be a DensityMatrix, got ndarray"),
    (lambda: outcome_probabilities(np.eye(2) / 2, [np.eye(2)]), ValueError,
     "state must be a DensityMatrix, got ndarray"),
    (lambda: degenerate_yes_probability(np.eye(2) / 2, [[1, 0]]), ValueError,
     "state must be a DensityMatrix, got ndarray"),
    (lambda: fit_transition(np.eye(2) / 2, ProbabilityVector([0.5, 0.5])),
     ValueError, "state must be a DensityMatrix, got ndarray"),
    # a target or series that is not of its type, before any attribute is
    # read
    (lambda: fit_transition(_MIXED, [0.5, 0.5]), ValueError,
     "target must be a ProbabilityVector, got list"),
    (lambda: apply_series(_MIXED, [(0, np.eye(3))]), ValueError,
     "series must be a LocalSeries, got list"),
    (lambda: no_signalling_check(_MIXED, [(0, np.eye(3))], [(1, np.eye(3))]),
     ValueError, "series must be a LocalSeries, got list"),
    # raw input at the other public entry points, by the same type rule
    (lambda: square_root_embed(np.array([0.5, 0.5])), ValueError,
     "p must be a ProbabilityVector, got ndarray"),
    (lambda: DensityMatrix.from_pure(np.array([1.0, 0.0])), ValueError,
     "state must be a PureState, got ndarray"),
    (lambda: fit_chain([], True, 0.1), ValueError,
     "chain must be a SurveyChain, got list"),
    (lambda: chain_feasibility([], False, 0.1), ValueError,
     "chain must be a SurveyChain, got list"),
    (lambda: replay({}, _TABLE1), ValueError,
     "fit must be a FitResult, got dict"),
    (lambda: replay(fit_chain(_TABLE1, True, 0.0), []), ValueError,
     "chain must be a SurveyChain, got list"),
    (lambda: classical_consistency_check(
        np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.1), ValueError,
     "final_a must be a Question, got ndarray"),
    (lambda: order_effect_check(np.full((2, 3), 1 / 3), np.full((2, 3), 1 / 3),
                                0.1), ValueError,
     "each marginal must be a tuple, got ndarray"),
    (lambda: fit_result_to_dict(None), ValueError,
     "fit must be a FitResult, got NoneType"),
    # a question or chain of raw parts, refused where it is built: a
    # polarity given as its string, an answer row as an array or a
    # ProbabilityVector
    (lambda: classical_consistency_check(
        Question("a", _HALVES, "favour"), Question("b", _HALVES, "favour"),
        0.1), ValueError, "polarity must be a Polarity, got str"),
    (lambda: Question("c", _HALVES, "bogus"), ValueError,
     "polarity must be a Polarity, got str"),
    (lambda: Question("a", np.array([0.5, 0.5])), ValueError,
     "row must be a tuple, got ndarray"),
    (lambda: Question("a", ProbabilityVector(np.array([0.5, 0.5]))),
     ValueError, "row must be a tuple, got ProbabilityVector"),
    (lambda: SurveyChain("x", [np.array([0.5, 0.5])] * 2), ValueError,
     "each question must be a Question, got ndarray"),
], ids=["probs-empty", "probs-2d", "amplitudes-empty", "amplitudes-2d",
        "amplitude-norm", "answer-shape", "projector-pair",
        "frame-projectors", "bare-frame", "column-list",
        "probabilities-frame-projectors", "probabilities-bare-frame",
        "probabilities-column-list", "ragged-answer", "string-answers",
        "probabilities-ragged-answer", "probabilities-string-answers",
        "string-subspace-basis", "ragged-subspace-basis",
        "density-ragged", "density-string", "density-1d", "probs-ragged",
        "probs-strings", "probs-complex", "amplitudes-ragged",
        "non-iterable-answers", "none-answers", "probs-huge-int",
        "amplitudes-huge-int", "density-huge-int",
        "answer-huge-int", "probabilities-answer-huge-int",
        "subspace-basis-huge-int", "probs-numeric-text",
        "amplitudes-numeric-bytes",
        "density-numeric-text", "answer-numeric-text",
        "probabilities-answer-numeric-text", "subspace-basis-numeric-text",
        "probs-object-text", "amplitudes-object-bytes",
        "density-object-text", "answer-object-text",
        "probabilities-answer-object-text", "subspace-basis-object-bytes",
        "lueders-raw-state", "probabilities-raw-state",
        "subspace-raw-state", "fit-transition-raw-state",
        "fit-transition-list-target", "apply-series-list",
        "no-signalling-list", "embed-array", "from-pure-array",
        "fit-chain-list", "chain-feasibility-list", "replay-dict-fit",
        "replay-list-chain", "classical-arrays", "order-arrays",
        "fit-to-dict-none", "classical-string-polarity",
        "question-bogus-polarity", "question-array-probs",
        "question-vector-row",
        "chain-array-questions"])
def test_structural_fault_message(entry, error, message):
    with pytest.raises(error) as err:
        entry()
    assert type(err.value) is error and str(err.value) == message


class TestDegenerateQuestion:
    def test_pooled_probability_exceeds_max(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        e1 = np.array([1, 0, 0], dtype=complex)
        e2 = np.array([0, 1, 0], dtype=complex)
        got = degenerate_yes_probability(rho, [e1, e2])
        assert abs(got - 0.8) < 1e-12
        assert got > 0.5

    def test_full_space(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        basis = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
        assert abs(degenerate_yes_probability(rho, basis) - 1.0) < 1e-12

    def test_rank_one(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        e3 = np.array([0, 0, 1], dtype=complex)
        assert abs(degenerate_yes_probability(rho, [e3]) - 0.2) < 1e-12

    def test_rejects_non_orthonormal(self):
        rho = DensityMatrix(np.eye(2) / 2)
        v = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(MeasurementError):
            degenerate_yes_probability(rho, [v])

    def test_rejects_empty_basis(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(MeasurementError, match="empty"):
            degenerate_yes_probability(rho, [])

    def test_rejects_wrong_length(self):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(MeasurementError, match="length 3"):
            degenerate_yes_probability(rho, [np.array([1, 0])])

    def test_matches_the_pooled_answer_of_the_completed_question(self):
        # a subspace basis completed to a unitary is a two-answer question
        # whose "yes" pools the subspace
        rng = np.random.default_rng(89)
        for d in range(2, 7):
            for r in range(1, d + 1):
                for rho in (DensityMatrix.from_pure(PureState(_pure(rng, d))),
                            DensityMatrix(random_density(rng, d))):
                    basis = haar_unitary(rng, d)[:, :r]
                    q = np.linalg.qr(basis, mode="complete")[0]
                    pooled = outcome_probabilities(
                        rho, [q[:, :r], q[:, r:]]).probs[0]
                    got = degenerate_yes_probability(rho, basis.T)
                    assert abs(got - pooled) <= 1e-15

    def test_degenerate_lueders_same_code_path(self):
        # a rank-2 and a rank-1 answer form a valid degenerate measurement
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        yes, no = np.eye(3)[:, :2], np.eye(3)[:, 2:]
        out = lueders_update(rho, [yes, no])
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)
