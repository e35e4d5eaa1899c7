import numpy as np
import pytest

import qcog.framefit as framefit
import qcog.states as states
from qcog.feasibility import majorization_check
from qcog.framefit import (RESIDUAL_LIMIT, InfeasibleTargetError, fit_chain,
                           fit_result_to_dict, fit_transition,
                           project_to_majorized, replay)
from qcog.hilbert import frame_projectors
from qcog.states import (DensityMatrix, ProbabilityVector, lueders_update,
                         outcome_probabilities, square_root_embed)

from .conftest import haar_unitary, make_chain, random_density


def pv(*values):
    return ProbabilityVector(np.array(values, dtype=float))


def diag_state(*values):
    return DensityMatrix(np.diag(values).astype(complex))


def five_answer_rows():
    # rows read off a square-root-embedded state, first in the standard
    # basis and then through Haar-random frames, with the measurement
    # update after each
    rng = np.random.default_rng(101)
    rows = [rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))]
    rho = DensityMatrix.from_pure(square_root_embed(pv(*rows[1])))
    rho = lueders_update(rho, frame_projectors(np.eye(5)))
    for _ in range(3):
        u = haar_unitary(rng, 5)
        rows.append(outcome_probabilities(rho, u).probs)
        rho = lueders_update(rho, frame_projectors(u))
    return rows


@pytest.fixture
def chains(table1, table2):
    """The fitted chains with their tolerances: both poll tables (Table 2
    needs projection) and a 5-answer chain."""
    return [(table1, 0.0), (table2, 0.07),
            (make_chain(five_answer_rows()), 0.0)]


class TestFitTransition:
    def test_ipsos_q2_to_q3(self):
        rho = diag_state(0.81, 0.04, 0.15)
        fit = fit_transition(rho, pv(0.72, 0.13, 0.15))
        assert fit.residual < 1e-18
        # independent re-expectation through plain matrix arithmetic
        achieved = np.array([
            (fit.frame[:, j].conj() @ rho.matrix @ fit.frame[:, j]).real
            for j in range(3)])
        assert np.max(np.abs(achieved - [0.72, 0.13, 0.15])) < 1e-9

    def test_identity_target_first_start(self):
        rho = diag_state(0.81, 0.04, 0.15)
        fit = fit_transition(rho, pv(0.81, 0.04, 0.15))
        assert fit.residual == 0.0
        assert np.array_equal(fit.frame, np.eye(3))

    def test_infeasible_target(self):
        rho = diag_state(0.81, 0.04, 0.15)
        with pytest.raises(InfeasibleTargetError):
            fit_transition(rho, pv(0.9, 0.05, 0.05))

    def test_frames_orthonormal(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            spec = rng.uniform(0.05, 1.0, 3)
            spec /= spec.sum()
            rho = diag_state(*np.sort(spec)[::-1])
            # any convex mixture toward uniform stays majorized
            w = rng.uniform(0.0, 1.0)
            target = pv(*(w * rho.matrix.diagonal().real
                          + (1 - w) * np.ones(3) / 3))
            fit = fit_transition(rho, target)
            gram = fit.frame.conj().T @ fit.frame
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_achieved_majorized_by_spectrum(self):
        rho = diag_state(0.7, 0.2, 0.1)
        fit = fit_transition(rho, pv(0.5, 0.25, 0.25))
        achieved = outcome_probabilities(rho, fit.frame)
        feasible, _ = majorization_check(np.array([0.7, 0.2, 0.1]),
                                         achieved.probs, tol=1e-10)
        assert feasible

    def test_deterministic_given_seed(self):
        # nothing is drawn at random: equal inputs give bit-equal frames
        rho = diag_state(0.6, 0.25, 0.15)
        a = fit_transition(rho, pv(0.5, 0.3, 0.2))
        b = fit_transition(rho, pv(0.5, 0.3, 0.2))
        assert np.array_equal(a.frame, b.frame)

    @pytest.mark.parametrize("dim", [3, 5, 9])
    def test_construction_any_dimension(self, dim):
        # a target read off the state in a Haar-random frame is reachable,
        # and the constructed frame reproduces it on the non-diagonal state
        rng = np.random.default_rng(89 + dim)
        for _ in range(5):
            rho = DensityMatrix(random_density(rng, dim))
            target = outcome_probabilities(rho, haar_unitary(rng, dim))
            fit = fit_transition(rho, target)
            assert fit.residual < 1e-18
            u = fit.frame
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
            achieved = np.array([(u[:, j].conj() @ rho.matrix @ u[:, j]).real
                                 for j in range(dim)])
            assert np.max(np.abs(achieved - target.probs)) < 1e-12


class TestProjection:
    def test_table2_q3(self):
        adjusted, linf, l2 = project_to_majorized(
            pv(0.79, 0.06, 0.15), np.array([0.73, 0.05, 0.22]))
        assert np.allclose(adjusted.probs, [0.73, 0.09, 0.18], atol=1e-12)
        assert abs(linf - 0.06) < 1e-12
        assert l2 >= linf

    def test_already_feasible_is_fixed_point(self):
        adjusted, linf, l2 = project_to_majorized(
            pv(0.5, 0.3, 0.2), np.array([0.6, 0.3, 0.1]))
        assert np.allclose(adjusted.probs, [0.5, 0.3, 0.2], atol=1e-12)
        assert linf < 1e-12 and l2 < 1e-12

    def test_projection_is_minimal(self):
        # no feasible point can be closer than the returned one
        rng = np.random.default_rng(83)
        current = np.array([0.7, 0.2, 0.1])
        target = pv(0.85, 0.1, 0.05)
        adjusted, _, l2 = project_to_majorized(target, current)
        for _ in range(2000):
            cand = rng.dirichlet(np.ones(3))
            feasible, _ = majorization_check(current, cand, 0.0)
            if feasible:
                assert np.linalg.norm(cand - target.probs) >= l2 - 1e-9

    def test_projection_is_minimal_five_answers(self):
        # the feasible set is the permutohedron of ``current``: mixtures of
        # its permutations.  No such point, and no point on the segment
        # from the returned one towards it, is closer to the target.
        rng = np.random.default_rng(97)
        current = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        target = pv(0.6, 0.02, 0.25, 0.12, 0.01)
        adjusted, _, l2 = project_to_majorized(target, current)
        assert majorization_check(current, adjusted.probs, 0.0)[0]
        assert l2 > 0.1
        for _ in range(500):
            weights = rng.dirichlet(np.ones(4))
            cand = sum(w * rng.permutation(current) for w in weights)
            for step in (1.0, 1e-3):
                point = adjusted.probs + step * (cand - adjusted.probs)
                assert np.linalg.norm(point - target.probs) >= l2 - 1e-12


class TestFitChain:
    def test_table1_isolated(self, table1):
        fit = fit_chain(table1, isolate_first=True, tol=0.0)
        assert all(r < 1e-9 for r in fit.residuals)
        expected = [q.probs.probs for q in table1.questions]
        for got, want in zip(fit.achieved, expected):
            assert np.max(np.abs(got.probs - want)) < 1e-6

    def test_table1_not_isolated_fails(self, table1):
        with pytest.raises(InfeasibleTargetError) as err:
            fit_chain(table1, isolate_first=False, tol=0.0)
        assert "Q1->Q2" in str(err.value)

    def test_table2_projection_distance(self, table2):
        fit = fit_chain(table2, isolate_first=True, tol=0.07)
        assert np.max(np.abs(np.subtract(fit.projection_distances,
                                         [0.0, 0.06, 0.06, 0.0]))) < 1e-12
        assert all(r < 1e-9 for r in fit.residuals)

    def test_replay_matches_achieved(self, chains):
        for chain, tol in chains:
            fit = fit_chain(chain, isolate_first=True, tol=tol)
            played = replay(fit, chain)
            assert len(played) == len(fit.achieved)
            for got, want in zip(played, fit.achieved):
                assert np.max(np.abs(got.probs - want.probs)) < 1e-12

    def test_fitted_from_rows_alone(self, chains, monkeypatch):
        # the state after each question is diagonal in its frame, so the
        # fit needs no eigensolver, density matrix or measurement update
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_chain used the state pipeline")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", forbidden)
            m.setattr(np.linalg, "eigvalsh", forbidden)
            m.setattr(states, "lueders_update", forbidden)
            m.setattr(framefit, "lueders_update", forbidden)
            m.setattr(DensityMatrix, "__post_init__", forbidden)
            fits = [fit_chain(chain, isolate_first=True, tol=tol)
                    for chain, tol in chains]
        for fit in fits:
            assert all(r <= RESIDUAL_LIMIT for r in fit.residuals)
            for u in fit.frames:
                assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-12

    def test_replay_final_row(self, table1):
        fit = fit_chain(table1, isolate_first=True, tol=0.0)
        final = replay(fit, table1)[-1]
        assert np.max(np.abs(final.probs - [0.45, 0.17, 0.38])) < 1e-6

    def test_standard_basis_frames_freeze_statistics(self, table1):
        import dataclasses
        fit = fit_chain(table1, isolate_first=True, tol=0.0)
        frozen = dataclasses.replace(
            fit, frames=tuple(np.eye(3, dtype=complex)
                              for _ in fit.frames))
        played = replay(frozen, table1)
        q2 = table1.questions[1].probs.probs
        for p in played[1:]:
            assert np.allclose(p.probs, q2, atol=1e-12)

    def test_fitted_transitions_majorized(self, table1):
        fit = fit_chain(table1, isolate_first=True, tol=0.0)
        seq = fit.achieved[1:]  # questions on the fitted factor
        for prev, nxt in zip(seq, seq[1:]):
            feasible, _ = majorization_check(prev.probs, nxt.probs, tol=1e-9)
            assert feasible

    def test_seeded_determinism(self, table1):
        # no seed: the fit depends on the chain alone
        a = fit_chain(table1, True, 0.0)
        b = fit_chain(table1, True, 0.0)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa, fb)

    def test_five_answer_chain(self):
        rows = five_answer_rows()
        chain = make_chain(rows)
        fit = fit_chain(chain, isolate_first=True, tol=0.0)
        assert len(fit.frames) == 4
        assert all(r < 1e-18 for r in fit.residuals)
        assert max(fit.projection_distances) == 0.0
        for got, want in zip(replay(fit, chain), rows):
            assert np.max(np.abs(got.probs - want)) < 1e-12

    def test_json_round_trip_precision(self, table1):
        fit = fit_chain(table1, isolate_first=True, tol=0.0)
        doc = fit_result_to_dict(fit)
        rebuilt = np.array([[complex(re, im) for re, im in row]
                            for row in doc["frames"][1]])
        assert np.array_equal(rebuilt, fit.frames[1])

    def test_too_short_chain(self):
        chain = make_chain([[0.5, 0.3, 0.2]])
        with pytest.raises(ValueError):
            fit_chain(chain, isolate_first=True, tol=0.0)
