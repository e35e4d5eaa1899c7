import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcog import sequential
from qcog.sequential import (grid_centers, interference_region_scan,
                             overlap_alpha,
                             sequential_probability,
                             sequential_probability_via_states,
                             spin_order_demo)
from qcog.states import DensityMatrix, ProbabilityVector, PureState

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def two_vector_overlap_oracle(p, q):
    # build both yes-states as explicit 2-vectors and take |<B|F>|^2
    a = np.arccos(np.sqrt(p))
    b = a - np.arccos(np.sqrt(q))
    f_yes = np.array([1.0, 0.0])
    b_yes = np.array([np.cos(b), np.sin(b)])
    return float(abs(f_yes @ b_yes) ** 2)


class TestOverlapAlpha:
    def test_equal_probabilities_full_overlap(self):
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert abs(overlap_alpha(p, p) - 1.0) < 1e-12

    def test_against_vector_oracle(self):
        # frozen from the oracle; overlap_alpha(0.8, 0.3) = 0.746606...
        assert abs(overlap_alpha(0.8, 0.3) - 0.7466060555964671) < 1e-12
        assert abs(overlap_alpha(0.8, 0.3)
                   - two_vector_overlap_oracle(0.8, 0.3)) < 1e-12

    def test_orthogonal_states(self):
        assert abs(overlap_alpha(1.0, 0.0)) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            overlap_alpha(1.2, 0.5)


class TestSequentialProbability:
    def test_compatible_case(self):
        for q in (0.0, 0.3, 0.5, 1.0):
            assert abs(sequential_probability(q, q) - q) < 1e-12

    def test_eigenstate_case(self):
        for q in (0.1, 0.4, 0.9):
            assert abs(sequential_probability(0.0, q) - q) < 1e-12
            assert abs(sequential_probability(1.0, q) - q) < 1e-12

    def test_frozen_value(self):
        # frozen from the 2-dim matrix oracle below
        assert abs(sequential_probability(0.8, 0.3) - 0.6479636333578808) < 1e-12

    def test_matches_state_pipeline(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(2000):
            p, q = rng.uniform(0, 1, 2)
            worst = max(worst, abs(sequential_probability(p, q)
                                   - sequential_probability_via_states(p, q)))
        assert worst < 1e-12

    def test_oracle_runs_the_state_pipeline(self, monkeypatch):
        # the oracle stays independent of the closed form it checks: one
        # call updates once and reads once.  Its inputs were checked, and
        # the rank-one update's output is certified, so no state is
        # validated on the way
        calls = Counter()

        def spy(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in ("lueders_update", "outcome_probabilities",
                     "sequential_probability"):
            spy(sequential, name, name)
        for cls in (ProbabilityVector, PureState, DensityMatrix):
            spy(cls, "__post_init__", cls.__name__)
        value = sequential_probability_via_states(0.8, 0.3)
        assert dict(calls) == {"lueders_update": 1, "outcome_probabilities": 1}
        assert abs(value - 0.6479636333578808) < 1e-12

    def test_oracle_runs_no_gram_check(self, gram_checks):
        # the first question is checked once, at import, and the second is
        # a rotation certified by construction: a cell checks neither
        sequential_probability_via_states(0.8, 0.3)
        assert gram_checks == []

    @given(unit, unit)
    @settings(max_examples=300, deadline=None)
    @example(0.0, 0.0)
    @example(0.0, 1.0)
    @example(1.0, 0.0)
    @example(1.0, 1.0)
    def test_certified_rotation_is_unitary(self, p, q):
        # the certificate the question rule is skipped on: max|U^H U - I|
        # is a few ulps, far inside STRUCTURAL_TOL
        question = sequential._second_question_answers(p, q)
        u = question.u
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-15
        assert question.answer.tolist() == [0, 1] and question.k == 2
        assert not (u.flags.writeable or question.answer.flags.writeable)

    @given(unit, unit)
    @settings(max_examples=300, deadline=None)
    def test_contraction_interval(self, p, q):
        val = sequential_probability(p, q)
        assert min(p, 1 - p) - 1e-12 <= val <= max(p, 1 - p) + 1e-12

    # keep clear of the endpoints, where 1 - q loses the low bits of q and
    # the sqrt term amplifies that rounding past the tolerance
    interior = st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False)

    @given(interior, interior)
    @settings(max_examples=300, deadline=None)
    def test_complement_symmetry(self, p, q):
        assert abs(sequential_probability(1 - p, 1 - q)
                   - (1 - sequential_probability(p, q))) < 1e-12

    def test_complement_symmetry_on_scan_grid(self):
        # cell centers map onto cell centers under (p, q) -> (1-p, 1-q),
        # which reverses the row-major cell order
        scan = interference_region_scan(21)
        assert np.allclose(scan.p[::-1], 1 - scan.p, rtol=0, atol=1e-12)
        assert np.allclose(scan.q[::-1], 1 - scan.q, rtol=0, atol=1e-12)
        assert np.max(np.abs(scan.p_f_b[::-1] - (1 - scan.p_f_b))) < 1e-12


class TestBroadcast:
    def test_arrays_match_scalar_calls_bitwise(self):
        rng = np.random.default_rng(67)
        p, q = rng.uniform(0, 1, (2, 50, 50))
        for f in (overlap_alpha, sequential_probability):
            out = f(p, q)
            assert out.shape == (50, 50)
            scalar = np.array([[f(a, b) for a, b in zip(pr, qr)]
                               for pr, qr in zip(p.tolist(), q.tolist())])
            assert np.array_equal(out, scalar)

    @pytest.mark.parametrize("bad", [np.nan, 1.2])
    def test_rejects_array_entry_outside_unit_interval(self, bad):
        p = np.full(5, 0.5)
        p[3] = bad
        for f in (overlap_alpha, sequential_probability):
            with pytest.raises(ValueError):
                f(p, 0.5)
            with pytest.raises(ValueError):
                f(0.5, p)

    def test_scalar_input_returns_float(self):
        for f in (overlap_alpha, sequential_probability):
            assert type(f(0.8, 0.3)) is float
            assert type(f(np.float64(0.8), 0.3)) is float


class TestRegionScan:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            interference_region_scan(1)

    def test_leading_question_inflates_below_diagonal(self):
        scan = interference_region_scan(31)
        below = scan.q < scan.p
        assert np.all(scan.p_f_b[below] > scan.q[below])

    def test_diagonal_delta_vanishes(self):
        scan = interference_region_scan(31)
        diagonal = np.abs(scan.p - scan.q) < 1e-12
        assert np.all(np.abs(scan.delta[diagonal]) < 1e-12)

    def test_region_count_matches_matrix_oracle(self):
        scan = interference_region_scan(41)
        count = int(scan.in_region.sum())
        oracle = 0
        for p, q in zip(scan.p.tolist(), scan.q.tolist()):
            pfb = sequential_probability_via_states(p, q)
            if p > pfb > q:
                oracle += 1
        assert count == oracle
        assert count > 0

    def test_columns_row_major(self):
        scan = interference_region_scan(5)
        centers = (np.arange(5) + 0.5) / 5
        assert np.array_equal(grid_centers(5), centers)
        for field in dataclasses.fields(scan):
            assert getattr(scan, field.name).shape == (25,)
        assert np.array_equal(scan.p.reshape(5, 5),
                              np.broadcast_to(centers[:, None], (5, 5)))
        assert np.array_equal(scan.q.reshape(5, 5),
                              np.broadcast_to(centers, (5, 5)))
        # each column is the scalar evaluation of its cell
        k = 2 * 5 + 3
        p, q = float(scan.p[k]), float(scan.q[k])
        pfb = sequential_probability(p, q)
        assert scan.alpha[k] == overlap_alpha(p, q)
        assert scan.p_f_b[k] == pfb
        assert scan.delta[k] == pfb - q
        assert scan.in_region[k] == (p > pfb > q)

    def test_point_fields_consistent(self):
        scan = interference_region_scan(5)
        assert np.all(np.abs(scan.delta - (scan.p_f_b - scan.q)) < 1e-15)
        assert scan.in_region[4 * 5 + 1]  # (p, q) = (0.9, 0.3)

    @pytest.mark.parametrize("grid_n", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_grid(self, grid_n):
        # int() would read 2.5 as 2, and (arange(2) + 0.5) / 2.5 puts a
        # center on the excluded boundary p = 1
        for f in (grid_centers, interference_region_scan):
            with pytest.raises(ValueError, match="grid_n must be an integer"):
                f(grid_n)


class TestSpinOrderDemo:
    def test_values(self):
        direct, after = spin_order_demo()
        assert abs(direct - 1.0) < 1e-12
        assert abs(after - 0.5) < 1e-12

    def test_each_question_is_checked_once(self, gram_checks):
        # x is read twice and y updates once: one Gram check each
        spin_order_demo()
        assert len(gram_checks) == 2

    def test_swapped_pauli_bases_by_symmetry(self):
        from qcog.states import (DensityMatrix, lueders_update,
                                 outcome_probabilities)
        s = 1 / np.sqrt(2)
        x_frame = np.array([[s, s], [s, -s]], dtype=complex)
        y_frame = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
        # start in the y-up eigenstate and let the x question intervene
        y_up = y_frame[:, 0]
        rho = DensityMatrix(np.outer(y_up, y_up.conj()))
        x_answers, y_answers = np.hsplit(x_frame, 2), np.hsplit(y_frame, 2)
        direct = outcome_probabilities(rho, y_answers).probs[0]
        rho_after = lueders_update(rho, x_answers)
        after = outcome_probabilities(rho_after, y_answers).probs[0]
        assert abs(direct - 1.0) < 1e-12
        assert abs(after - 0.5) < 1e-12


def _full_probability_rule(name, x):
    # the oracle's scalar rule without the float shortcut
    x = sequential._check_unit_interval(name, x)
    if x.ndim:
        raise ValueError(f"{name} must be a scalar")
    return float(x)


def _rule_outcome(rule, x):
    try:
        value = rule("p", x)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(value), value.hex()


@pytest.mark.parametrize("x", [
    0.0, -0.0, 1.0, 0.3, 5e-324, float(np.nextafter(1.0, 0.0)),
    float(np.nextafter(1.0, 2.0)), -5e-324, float("nan"), float("inf"),
    True, False, 0, 1, np.float64(0.3), np.float64("nan"), np.float32(0.3),
    np.array(0.3), np.array([0.3])])
def test_float_shortcut_matches_the_full_rule(x):
    # a float in [0, 1] skips the array rule, with its value and sign kept;
    # everything else gets the full rule's value or message
    assert (_rule_outcome(sequential._check_probability, x)
            == _rule_outcome(_full_probability_rule, x))
