import numpy as np
import pytest

from qcog import hilbert, states
from qcog.hilbert import STRUCTURAL_TOL, frame_projectors
from qcog.states import (DensityMatrix, MeasurementError, ProbabilityVector,
                         PureState, StateError, degenerate_yes_probability,
                         lueders_update, outcome_probabilities,
                         square_root_embed)

from .conftest import haar_unitary, random_probs
from .oracles import measure_frame


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
        with pytest.raises(StateError):
            ProbabilityVector.from_percents([np.nan, 50, 50])

    def test_from_percents_rejects_bad_sum(self):
        with pytest.raises(StateError):
            ProbabilityVector.from_percents([50, 30, 17])  # sums to 97

    def test_from_percents_rejects_empty(self):
        with pytest.raises(StateError):
            ProbabilityVector.from_percents([])

    def test_from_percents_renormalizes(self):
        p = ProbabilityVector.from_percents([50, 30, 20.5])
        assert abs(p.probs.sum() - 1.0) < 1e-15


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix(m)

    def test_hermiticity_checked_once(self, monkeypatch):
        calls = []
        original = hilbert.is_hermitian

        def counted(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(hilbert, "is_hermitian", counted)
        monkeypatch.setattr(states, "is_hermitian", counted)
        DensityMatrix(np.eye(4) / 4)
        assert len(calls) == 1


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


class TestOutcomeProbabilities:
    def test_eigenbasis_case(self):
        rho = DensityMatrix(np.diag([0.81, 0.04, 0.15]).astype(complex))
        got = outcome_probabilities(rho, np.eye(3))
        assert np.allclose(got.probs, [0.81, 0.04, 0.15], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(23)
        psi = PureState((lambda a: a / np.linalg.norm(a))(
            rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        rho = DensityMatrix.from_pure(psi)
        got = outcome_probabilities(rho, haar_unitary(rng, 3))
        assert abs(got.probs.sum() - 1.0) < 1e-12

    def test_convex_combination_oracle(self):
        # expectations are weighted averages sum_i r_i p_i of the spectrum
        rng = np.random.default_rng(29)
        rho = DensityMatrix(np.diag([0.81, 0.04, 0.15]).astype(complex))
        for _ in range(50):
            u = haar_unitary(rng, 3)
            got = outcome_probabilities(rho, u).probs
            oracle = np.array(
                [sum(abs(u[k, j]) ** 2 * d
                     for k, d in enumerate([0.81, 0.04, 0.15]))
                 for j in range(3)])
            assert np.allclose(got, oracle, atol=1e-12)
            assert np.all(got >= 0.04 - 1e-12)
            assert np.all(got <= 0.81 + 1e-12)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(MeasurementError):
            outcome_probabilities(rho, np.eye(2))

    def test_rejects_non_orthonormal_frame(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(MeasurementError, match="orthonormal"):
            outcome_probabilities(rho, [[1, 1], [0, 0]])


class TestLuedersUpdate:
    def test_pure_state_becomes_mixture(self):
        p = 0.7
        psi = square_root_embed(ProbabilityVector(np.array([p, 1 - p])))
        rho = DensityMatrix.from_pure(psi)
        out = lueders_update(rho, frame_projectors(np.eye(2)))
        assert np.allclose(out.matrix, np.diag([p, 1 - p]), atol=1e-14)

    def test_commuting_case_unchanged(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        out = lueders_update(rho, frame_projectors(np.eye(3)))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        rho = DensityMatrix.from_pure(PureState(
            (lambda a: a / np.linalg.norm(a))(
                rng.standard_normal(3) + 1j * rng.standard_normal(3))))
        projs = frame_projectors(haar_unitary(rng, 3))
        once = lueders_update(rho, projs)
        twice = lueders_update(once, projs)
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12

    def test_rejects_incomplete_projectors(self):
        rho = DensityMatrix(np.eye(2) / 2)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(MeasurementError):
            lueders_update(rho, [p0])

    def test_rejects_non_orthogonal(self):
        rho = DensityMatrix(np.eye(2) / 2)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        p1 = np.outer(v, v)
        with pytest.raises(MeasurementError):
            lueders_update(rho, [p1, np.diag([1.0, 0.0]).astype(complex)])

    def test_rejects_oblique_projectors(self):
        # idempotent, mutually annihilating and complete, but not Hermitian
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(MeasurementError, match="Hermitian"):
            lueders_update(rho, [p, np.eye(2) - p])

    def test_purity_never_increases(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            psi = (lambda a: a / np.linalg.norm(a))(
                rng.standard_normal(3) + 1j * rng.standard_normal(3))
            rho = DensityMatrix.from_pure(PureState(psi))
            out = measure_frame(rho, haar_unitary(rng, 3))
            assert out.purity() <= rho.purity() + 1e-12

    def test_contraction_of_subsequent_statistics(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_probs(rng, 3)
            rho = DensityMatrix(np.diag(p).astype(complex))
            out = measure_frame(rho, haar_unitary(rng, 3))
            stats = outcome_probabilities(out, haar_unitary(rng, 3)).probs
            assert np.max(stats) <= np.max(p) + 1e-12
            assert np.min(stats) >= np.min(p) - 1e-12

    def test_commuting_frames_pure_equals_mixed(self):
        # same eigenbasis everywhere: superposition vs mixture identical
        rng = np.random.default_rng(43)
        p = ProbabilityVector(random_probs(rng, 3))
        pure = DensityMatrix.from_pure(square_root_embed(p))
        mixed = DensityMatrix.diagonal(p)
        frame = np.eye(3)
        for _ in range(3):
            sp = outcome_probabilities(measure_frame(pure, frame), frame)
            sm = outcome_probabilities(measure_frame(mixed, frame), frame)
            assert np.allclose(sp.probs, sm.probs, atol=1e-12)
            pure = measure_frame(pure, frame)
            mixed = measure_frame(mixed, frame)


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

    def test_degenerate_lueders_same_code_path(self):
        # rank-2 + rank-1 projectors form a valid degenerate measurement
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        p_yes = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p_no = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = lueders_update(rho, [p_yes, p_no])
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)
