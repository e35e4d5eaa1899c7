import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcog.framefit as framefit
import qcog.states as states
from qcog.feasibility import chain_feasibility, majorization_check
from qcog.framefit import (RESIDUAL_LIMIT, FitError, InfeasibleTargetError,
                           fit_chain, fit_result_to_dict, fit_transition,
                           project_to_majorized, replay)
from qcog.states import (DensityMatrix, ProbabilityVector, lueders_update,
                         outcome_probabilities, square_root_embed)

from .conftest import haar_unitary, make_chain, random_density
from .oracles import (pava_oracle, projection_oracle, row_step_oracle,
                      schur_horn_frame_oracle)

# each step's W, each achieved row and each projection distance of
# fit_chain on Tables 1 and 2, first question isolated, as float.hex: the
# bits that no BLAS call touches, recorded from the numpy row step
FIT_CHAIN_BITS = json.loads(
    (Path(__file__).parent / "fit_chain_bits.json").read_text())


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
    rho = lueders_update(rho, np.hsplit(np.eye(5), 5))
    for _ in range(3):
        answers = np.hsplit(haar_unitary(rng, 5), 5)
        rows.append(outcome_probabilities(rho, answers).probs)
        rho = lueders_update(rho, answers)
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

    def test_infeasible_message_is_the_row_steps(self):
        # fit_transition and fit_chain raise from one row step, in one form
        rho = diag_state(0.81, 0.04, 0.15)
        with pytest.raises(InfeasibleTargetError) as err:
            fit_transition(rho, pv(0.9, 0.05, 0.05))
        assert str(err.value) == ("target [0.9, 0.05, 0.05] is infeasible: "
                                  "majorization slack 0.09 exceeds tol 0.0")
        assert abs(err.value.slack - 0.09) < 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("diagonal", [
        (0.15, 0.81, 0.04), (0.4, 0.2, 0.2, 0.2), (0.6, 0.0, 0.4, 0.0),
        (0.0, 0.3, 0.0, 0.3, 0.4)], ids=["permuted", "repeated", "zeros",
                                         "repeated-zeros"])
    def test_diagonal_states(self, diagonal, dtype):
        # eigh of an exactly diagonal state is a permutation of it, so every
        # reachable target is reproduced: the diagonal itself, reversed,
        # uniform, and halfway to uniform
        rho = DensityMatrix(np.diag(diagonal).astype(dtype))
        d = np.array(diagonal)
        u_n = np.full(d.size, 1 / d.size)
        for t in (d, d[::-1], u_n, (d + u_n) / 2):
            u = fit_transition(rho, pv(*t)).frame
            assert np.max(np.abs(u.conj().T @ u - np.eye(d.size))) < 1e-12
            achieved = np.einsum("ij,ik,kj->j", u.conj(), rho.matrix, u).real
            assert np.max(np.abs(achieved - t)) < 1e-12

    @pytest.mark.parametrize("diagonal", [
        (0.15, 0.81, 0.04), (0.5, 0.0, 0.3, 0.2), (0.05, 0.1, 0.2, 0.25, 0.4)])
    def test_diagonal_target_gives_identity(self, diagonal):
        # distinct entries: the Schur-Horn ordering undoes eigh's permutation
        # exactly.  Tied entries may come back swapped within their tie,
        # which reproduces the same row
        fit = fit_transition(DensityMatrix(np.diag(diagonal)), pv(*diagonal))
        assert fit.residual == 0.0
        assert np.array_equal(fit.frame, np.eye(len(diagonal)))

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
        achieved = outcome_probabilities(rho, np.hsplit(fit.frame, 3))
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
            target = outcome_probabilities(
                rho, np.hsplit(haar_unitary(rng, dim), dim))
            fit = fit_transition(rho, target)
            assert fit.residual < 1e-18
            u = fit.frame
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
            achieved = np.array([(u[:, j].conj() @ rho.matrix @ u[:, j]).real
                                 for j in range(dim)])
            assert np.max(np.abs(achieved - target.probs)) < 1e-12

    def test_rejects_target_of_other_dimension(self):
        with pytest.raises(ValueError) as err:
            fit_transition(diag_state(0.5, 0.5), pv(0.5, 0.3, 0.2))
        assert str(err.value) == "distributions have different dimensions"


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

    def test_slack_against_achieved_row(self):
        # each input step has slack 0.05, within tol; Q2 is projected to
        # [0.5, 0.275, 0.225], the state Q3 is asked on, and Q3 is 0.1
        # beyond that
        chain = make_chain([[0.5, 0.3, 0.2], [0.55, 0.25, 0.2],
                            [0.6, 0.2, 0.2]])
        with pytest.raises(InfeasibleTargetError, match="Q2->Q3") as err:
            fit_chain(chain, isolate_first=False, tol=0.07)
        assert abs(err.value.slack - 0.1) < 1e-12

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fits_exactly_when_majorized(self, data):
        # small integer weights give ties and zeros
        n = data.draw(st.integers(2, 6))
        weights = st.lists(st.integers(0, 12), min_size=n, max_size=n)
        rows = [data.draw(weights.filter(any)) for _ in range(2)]
        chain = make_chain(rows)
        c, t = (q.probs.probs for q in chain.questions)
        assert c.tolist() == np.divide(rows[0], sum(rows[0])).tolist()
        feasible, slack = majorization_check(c, t, 0.0)
        # one slack rule on floats: the fit's slack of the pair is the pair
        # check's, bit for bit; the chain check's, exact on the weights,
        # gives the same verdict
        report = chain_feasibility(chain, False, 0.0)
        assert abs(report.transitions[0].majorization_slack - slack) < 1e-15
        assert report.transitions[0].feasible_at_tol == feasible
        try:
            fit = fit_chain(chain, isolate_first=False, tol=0.0)
        except InfeasibleTargetError as exc:
            assert not feasible
            assert exc.slack == slack
            assert type(exc.slack) is float and exc.slack.hex() == slack.hex()
        else:
            assert feasible
            assert fit.residuals[0] <= RESIDUAL_LIMIT
            assert np.max(np.abs(fit.achieved[1].probs - t)) < 1e-12

    @pytest.mark.parametrize("perm", itertools.permutations(range(3)))
    def test_relabelled_answers(self, table1, table2, perm):
        # relabelling the answers leaves every slack as it was and permutes
        # every fitted row the same way
        perm = list(perm)
        for chain, tol in ((table1, 0.0), (table2, 0.07)):
            relabelled = make_chain([q.probs.probs[perm]
                                     for q in chain.questions])
            for a, b in zip(chain_feasibility(chain, True, tol).transitions,
                            chain_feasibility(relabelled, True, tol).transitions):
                assert abs(a.majorization_slack - b.majorization_slack) < 1e-12
            fit = fit_chain(chain, isolate_first=True, tol=tol)
            refit = fit_chain(relabelled, isolate_first=True, tol=tol)
            for a, b in zip(fit.achieved, refit.achieved):
                assert np.max(np.abs(a.probs[perm] - b.probs)) < 1e-12

    def test_table2_projection_distance(self, table2):
        fit = fit_chain(table2, isolate_first=True, tol=0.07)
        assert np.max(np.abs(np.subtract(fit.projection_distances,
                                         [0.0, 0.06, 0.06, 0.0]))) < 1e-12
        assert all(r < 1e-9 for r in fit.residuals)

    def test_projected_rows_not_rechecked(self, table2, monkeypatch):
        # fit_chain projects rows that it has checked or built itself, so
        # it skips project_to_majorized's entry rule; the result's slack is
        # still checked
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_chain re-checked a checked row")

        want = fit_chain(table2, isolate_first=True, tol=0.07)
        monkeypatch.setattr(framefit, "_majorization_pair", forbidden)
        fit = fit_chain(table2, isolate_first=True, tol=0.07)
        assert max(fit.projection_distances) > 0
        assert fit.projection_distances == want.projection_distances
        with pytest.raises(AssertionError, match="re-checked"):
            project_to_majorized(table2.questions[2].probs,
                                 table2.questions[1].probs.probs)

    def test_replay_matches_achieved(self, chains):
        for chain, tol in chains:
            fit = fit_chain(chain, isolate_first=True, tol=tol)
            played = replay(fit, chain)
            assert len(played) == len(fit.achieved)
            for got, want in zip(played, fit.achieved):
                assert np.max(np.abs(got.probs - want.probs)) < 1e-12

    def test_replay_checks_each_frame_once(self, chains, gram_checks):
        # one Gram check per frame, for both the read-out and the update,
        # with the bits of asking the raw answers each time
        for chain, tol in chains:
            fit = fit_chain(chain, isolate_first=True, tol=tol)
            rho = DensityMatrix.from_pure(
                square_root_embed(chain.questions[1].probs))
            want = [chain.questions[0].probs.probs]
            for frame in fit.frames:
                answers = np.hsplit(frame, chain.dim)
                want.append(outcome_probabilities(rho, answers).probs)
                rho = lueders_update(rho, answers)
            gram_checks.clear()
            played = replay(fit, chain)
            assert len(gram_checks) == len(fit.frames)
            assert [p.probs.tobytes() for p in played] == [
                w.tobytes() for w in want]

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


def _bits(value):
    # a comparable form of a row step's output or error, bit for bit
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ProbabilityVector):
        return _bits(value.probs)
    if isinstance(value, float):
        return value.hex()
    return tuple(map(_bits, value))


def _outcome(step, *args):
    try:
        return _bits(step(*args))
    except (InfeasibleTargetError, FitError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "slack", None)


@st.composite
def row_pairs(draw):
    """(lam, target) of 2-9 answers (from 8, numpy sums a row eight ways
    at once).  ``lam`` is a row of small integer weights (ties and zeros),
    maybe with one entry moved below 0, or the spectrum eigh gives for a
    random state of rank 1 to d (tiny negative eigenvalues); ``target`` is
    another such row, ``lam`` itself, a permutation of it, or a mixture of
    it towards uniform."""
    n = draw(st.integers(2, 9))
    weights = st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any)
    if draw(st.booleans()):
        lam = np.divide(w := draw(weights), sum(w))
        i, j = draw(st.permutations(range(n)))[:2]
        moved = draw(st.sampled_from([0.0, 1e-17, 0.1]))
        lam[i] -= moved
        lam[j] += moved
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.standard_normal((n, draw(st.integers(1, n))))
        lam = np.linalg.eigvalsh(g @ g.T / np.vdot(g, g))
    base = np.maximum(lam, 0.0) / np.maximum(lam, 0.0).sum()
    kind = draw(st.sampled_from(["row", "same", "permuted", "mixed"]))
    if kind == "row":
        t = np.divide(w := draw(weights), sum(w))
    elif kind == "same":
        t = base
    elif kind == "permuted":
        t = base[draw(st.permutations(range(n)))]
    else:
        a = draw(st.floats(0.0, 1.0))
        t = a * base + (1.0 - a) / n
    return lam, ProbabilityVector(t)


class TestRowStepMatchesNumpy:
    """The row step runs on Python floats; its outputs and errors are the
    numpy computation's, bit for bit (tests/oracles.py)."""

    @given(row_pairs(), st.sampled_from([0.0, 0.07, 0.3, 1.0]))
    @settings(max_examples=400, deadline=None)
    def test_row_step(self, pair, tol):
        lam, target = pair
        assert (_outcome(framefit._fit_row, lam, target, tol, "row")
                == _outcome(row_step_oracle, lam, target, tol, "row"))

    @given(row_pairs())
    @settings(max_examples=300, deadline=None)
    def test_frame(self, pair):
        lam, target = pair
        assert (_bits(framefit._schur_horn_frame(lam, target.probs))
                == _bits(schur_horn_frame_oracle(lam, target.probs)))

    @given(row_pairs())
    @settings(max_examples=300, deadline=None)
    def test_projection(self, pair):
        lam, target = pair
        assert (_outcome(project_to_majorized, target, lam)
                == _outcome(projection_oracle, target, lam))
        x = target.probs - np.sort(lam)[::-1]
        assert _bits(np.array(framefit._pava_nonincreasing(x.tolist()))) \
            == _bits(pava_oracle(x))

    @pytest.mark.parametrize("current, target", [
        # Table 2's Q3 on the state Q2 leaves
        ([0.73, 0.05, 0.22], [0.79, 0.06, 0.15]),
        # zero entries, projected to +0.0 entries that the clip keeps
        ([0.0, 0.125, 0.0, 0.25, 0.625], [0.0, 0.2, 0.2, 0.5, 0.1]),
        # a current with an entry below 0, which its entry rule admits
        ([0.7, 0.4, -0.1], [0.1, 0.1, 0.8]),
        ([0.6, 0.5, -0.1], [0.0, 0.0, 1.0]),
    ])
    def test_projection_examples(self, current, target):
        got = _outcome(project_to_majorized, pv(*target), np.array(current))
        assert got == _outcome(projection_oracle, pv(*target),
                               np.array(current))

    @pytest.mark.parametrize("table, tol", [
        ("table1", "0"), ("table1", "0.07"), ("table2", "0"),
        ("table2", "0.07")])
    def test_fit_chain_bits_pinned(self, table, tol, request, monkeypatch):
        chain = request.getfixturevalue(table)
        frames = []
        frame = framefit._schur_horn_frame
        monkeypatch.setattr(framefit, "_schur_horn_frame", lambda lam, t: (
            frames.append(frame(lam, t)) or frames[-1]))
        want = FIT_CHAIN_BITS[table][tol]
        if "infeasible_slack" in want:
            with pytest.raises(InfeasibleTargetError) as err:
                fit_chain(chain, isolate_first=True, tol=float(tol))
            assert err.value.slack.hex() == want["infeasible_slack"]
            return
        fit = fit_chain(chain, isolate_first=True, tol=float(tol))
        hexes = lambda rows: [[x.hex() for x in row] for row in rows]
        assert [hexes(w.tolist()) for w in frames] == want["w"]
        assert hexes(p.probs.tolist() for p in fit.achieved) == want["achieved"]
        assert ([d.hex() for d in fit.projection_distances]
                == want["projection_distances"])
