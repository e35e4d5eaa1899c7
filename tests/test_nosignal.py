import warnings

import numpy as np
import pytest

from qcog import nosignal, states
from qcog.hilbert import frame_projectors, partial_trace
from qcog.nosignal import (LocalSeries, apply_series, fifth_marginal,
                           no_signalling_check, random_entangled_state,
                           random_local_series)
from qcog.states import (DensityMatrix, ProbabilityVector, PureState,
                         StateError, square_root_embed)

from .conftest import haar_unitary
from .oracles import embed_local, lueders_projectors

DIMS = (3, 3, 3, 3, 3)
# an accepted state on dims (2, 2) whose last factor's second answer sums
# two eigenvalues just inside -STRUCTURAL_TOL
EDGE_STATE = DensityMatrix(np.diag([1 + 1e-10, -5e-11, 0, -5e-11]))


def assert_matches_dense_route(state, series, dims):
    # the superoperator contraction against the step-by-step Lueders update
    # with explicit full-space projectors
    fast = apply_series(state, series)
    dense = state.matrix
    for k, u in series.steps:
        dense = lueders_projectors(dense, embed_local(u, k, dims))
    assert np.max(np.abs(fast.matrix - dense)) < 1e-12


def multi_step_series(rng, dims):
    # random 2-, 4- and 8-step series, and one that measures the same factor
    # twice in a row
    yield from (random_local_series(rng, n, dims) for n in (2, 4, 8))
    yield LocalSeries(((0, haar_unitary(rng, dims[0])),
                       (0, haar_unitary(rng, dims[0])),
                       (1, haar_unitary(rng, dims[1]))), dims)


class TestLocalSeries:
    def test_rejects_fifth_factor(self):
        # the series checks the index against its space, whose last factor
        # stays untouched
        with pytest.raises(ValueError, match="factor index"):
            LocalSeries(((4, np.eye(3)),), DIMS)

    def test_rejects_non_unitary(self):
        for frame in (np.ones((3, 3)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="series frames must be unitary"):
                LocalSeries(((0, frame),))

    @pytest.mark.parametrize("k", [0.7, 1.0, True, np.bool_(False), "1"])
    def test_rejects_non_integer_index(self, k):
        # int() would truncate 0.7 to factor 0 and turn True into factor 1
        with pytest.raises(ValueError, match="factor index must be an integer"):
            LocalSeries(((k, np.eye(3)),))

    def test_accepts_numpy_integer_index(self):
        series = LocalSeries(((np.int64(2), np.eye(3)),))
        assert series.steps[0][0] == 2 and type(series.steps[0][0]) is int


class TestLocalSeriesBatching:
    """Frames are checked for unitarity in one stacked Gram product per
    shape; a series with one fault raises what the step-by-step check
    raised."""

    @staticmethod
    def with_fault(position, step):
        # five good steps on DIMS with one replaced
        rng = np.random.default_rng(179)
        steps = [(k % 4, haar_unitary(rng, 3)) for k in range(5)]
        steps[position] = step
        return tuple(steps)

    @pytest.mark.parametrize("position, step, message", [
        (0, (1, np.diag([1.0, 1.0, 1.1])), "^series frames must be unitary$"),
        (2, (1, np.diag([1.0, 1.0, 1.1])), "^series frames must be unitary$"),
        (4, (1, np.diag([1.0, 1.0, 1.1])), "^series frames must be unitary$"),
        (2, (0, np.zeros((0, 0))), "^series frames must be unitary$"),
        (2, (0, np.eye(3)[:, :2]), "^series frames must be unitary$"),
        (2, (4, np.eye(3)), "^factor index 4 must lie in 0..3$"),
        (2, (0, np.eye(2)), r"^frame of shape \(2, 2\) does not fit factor 0 "
                            r"of dimension 3$"),
    ], ids=["non-unitary-first", "non-unitary-middle", "non-unitary-last",
            "empty", "non-square", "out-of-range-index", "misfit"])
    def test_single_fault_message(self, position, step, message):
        with pytest.raises(ValueError, match=message):
            LocalSeries(self.with_fault(position, step))

    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_wild_entry_is_not_unitary_without_warning(self, bad):
        frame = np.eye(3, dtype=np.complex128)
        frame[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="series frames must be unitary"):
                LocalSeries(self.with_fault(2, (1, frame)))

    def test_one_stack_per_frame_size(self, monkeypatch):
        # (2, 3, 2): factor 0 takes 2x2 frames and factor 1 takes 3x3 ones
        stacks = []
        original = nosignal._orthonormal_columns

        def recorded(a):
            stacks.append(a.shape)
            return original(a)

        monkeypatch.setattr(nosignal, "_orthonormal_columns", recorded)
        rng = np.random.default_rng(181)
        frames = [(0, haar_unitary(rng, 2)), (1, haar_unitary(rng, 3)),
                  (0, haar_unitary(rng, 2)), (1, haar_unitary(rng, 3)),
                  (0, haar_unitary(rng, 2))]
        LocalSeries(tuple(frames), (2, 3, 2))
        assert sorted(stacks) == [(2, 3, 3), (3, 2, 2)]
        # a fault in either stack is still caught
        for k, d in ((0, 2), (1, 3)):
            bad = frames.copy()
            bad[k] = (k, 2 * np.eye(d))
            with pytest.raises(ValueError, match="series frames must be unitary"):
                LocalSeries(tuple(bad), (2, 3, 2))


class TestStateType:
    @pytest.mark.parametrize("state", [
        np.eye(243) / 243,
        PureState(np.eye(243)[0]),
    ], ids=["ndarray", "PureState"])
    def test_typed_error_for_a_state_that_is_not_a_density_matrix(self, state):
        series = LocalSeries(((0, np.eye(3)),))
        for call in (lambda: no_signalling_check(state, series, series),
                     lambda: apply_series(state, series),
                     lambda: fifth_marginal(state)):
            with pytest.raises(ValueError,
                               match="state must be a DensityMatrix, got "
                                     f"{type(state).__name__}$"):
                call()


class TestEmbedLocal:
    def test_block_structure(self):
        projs = embed_local(np.eye(3), 0, dims=(3, 3))
        for i, p in enumerate(projs):
            expected = np.zeros((9, 9))
            expected[3 * i:3 * i + 3, 3 * i:3 * i + 3] = np.eye(3)
            assert np.array_equal(p, expected)

    def test_completeness_full_space(self):
        rng = np.random.default_rng(89)
        projs = embed_local(haar_unitary(rng, 3), 2, DIMS)
        assert np.max(np.abs(sum(projs) - np.eye(243))) < 1e-12

    def test_partial_trace_recovers_projector(self):
        rng = np.random.default_rng(97)
        u = haar_unitary(rng, 3)
        local = frame_projectors(u)[0]
        embedded = embed_local(u, 1, dims=(3, 3, 3))[0]
        back = partial_trace(embedded, [3, 3, 3], keep=1)
        assert np.allclose(back, local * 9, atol=1e-12)


class TestApplySeries:
    def test_empty_series(self):
        rng = np.random.default_rng(101)
        state = random_entangled_state(rng)
        out = apply_series(state, LocalSeries(()))
        assert np.array_equal(out.matrix, state.matrix)

    def test_matches_embedded_projector_route(self):
        # fast local update against the explicit full-space Lueders oracle
        rng = np.random.default_rng(103)
        state = random_entangled_state(rng, dims=(3, 3, 3))
        for factor in (0, 1):
            u = haar_unitary(rng, 3)
            fast = apply_series(state, LocalSeries(((factor, u),), (3, 3, 3)))
            dense = lueders_projectors(state.matrix,
                                       embed_local(u, factor, (3, 3, 3)))
            assert np.max(np.abs(fast.matrix - dense)) < 1e-12
        for dims in ((3, 3, 3), (2,) * 7):
            state = random_entangled_state(rng, dims=dims)
            for series in multi_step_series(rng, dims):
                assert_matches_dense_route(state, series, dims)

    def test_mixed_dims_match_embedded_projector_route(self):
        rng = np.random.default_rng(109)
        dims = (2, 3, 3)
        state = random_entangled_state(rng, dims=dims)
        for factor in (0, 1):
            u = haar_unitary(rng, dims[factor])
            fast = apply_series(state, LocalSeries(((factor, u),), dims))
            dense = lueders_projectors(state.matrix,
                                       embed_local(u, factor, dims))
            assert np.max(np.abs(fast.matrix - dense)) < 1e-12
        for series in multi_step_series(rng, dims):
            assert_matches_dense_route(state, series, dims)

    def test_rejects_index_outside_dims(self):
        # factor 3 is valid for five factors but not for three
        with pytest.raises(ValueError, match="factor index"):
            LocalSeries(((3, np.eye(3)),), (3, 3, 3))

    def test_rejects_non_integer_dims(self):
        # int() would read the last factor's 3.5 as 3, and the product 364.5
        # of these dims as a 364-dimensional space
        rng = np.random.default_rng(157)
        state = random_entangled_state(rng)
        series = random_local_series(rng, 2)
        for bad in ((3, 3, 3, 3, 3.5), (3.5, 3)):
            for call in (lambda: LocalSeries(series.steps, bad),
                         lambda: fifth_marginal(state, dims=bad),
                         lambda: random_entangled_state(rng, dims=bad),
                         lambda: random_local_series(rng, 2, dims=bad)):
                with pytest.raises(ValueError, match="factor dimension must be"):
                    call()

    def test_rejects_non_positive_dims(self):
        # np.prod would read (-3, -3) as a 9-dimensional space, which the
        # 9-dimensional state would then fit
        rng = np.random.default_rng(179)
        state = random_entangled_state(rng, dims=(3, 3))
        for bad in ((3, 0), (-3, -3), ()):
            for call in (lambda: random_entangled_state(rng, dims=bad),
                         lambda: random_local_series(rng, 2, dims=bad),
                         lambda: LocalSeries((), bad),
                         lambda: fifth_marginal(state, dims=bad)):
                with pytest.raises(ValueError, match="must be positive"):
                    call()

    def test_rejects_one_factor_space(self):
        # a one-factor space has no factor below the last for a series to
        # touch: the check would compare two untouched marginals
        rng = np.random.default_rng(181)
        for call in (lambda: LocalSeries((), (9,)),
                     lambda: random_local_series(rng, 2, dims=(3,))):
            with pytest.raises(ValueError, match="at least two factors"):
                call()

    def test_rejects_frame_shape_outside_dims(self):
        with pytest.raises(ValueError, match="does not fit"):
            LocalSeries(((0, np.eye(3)),), (2, 3, 3))

    def test_product_state_marginal_untouched(self):
        rng = np.random.default_rng(107)
        probs = np.array([0.45, 0.17, 0.38])
        factors = [np.outer(v, v.conj()) for v in
                   (haar_unitary(rng, 3)[:, 0] for _ in range(4))]
        fifth = np.diag(probs).astype(complex)
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        full = np.kron(full, fifth)
        state = DensityMatrix(full)
        series = random_local_series(rng, 4)
        out = apply_series(state, series)
        assert np.allclose(fifth_marginal(out).probs, probs, atol=1e-12)
        # untouched intermediate factors keep their marginals too
        for k in range(4):
            if all(step[0] != k for step in series.steps):
                before = partial_trace(state.matrix, list(DIMS), k)
                after = partial_trace(out.matrix, list(DIMS), k)
                assert np.allclose(before, after, atol=1e-12)

    def test_trace_preserved_and_valid_state(self):
        rng = np.random.default_rng(109)
        state = random_entangled_state(rng)
        out = apply_series(state, random_local_series(rng, 3))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
        # the output skips validation; the public constructor accepts it
        DensityMatrix(np.array(out.matrix))
        assert not out.matrix.flags.writeable

    def test_validates_only_at_boundary(self, monkeypatch):
        # outputs of apply_series and random_entangled_state are density
        # matrices by construction, so only the public constructor validates;
        # a pure state passes the rank-one certificate and never reaches
        # Cholesky, so the positivity check itself is spied on too
        class Validated(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Validated

        rng = np.random.default_rng(151)
        state = random_entangled_state(rng)
        series = random_local_series(rng, 4)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", forbidden)
            m.setattr(np.linalg, "eigvalsh", forbidden)
            m.setattr(np.linalg, "cholesky", forbidden)
            m.setattr(states, "_psd_fault", forbidden)
            apply_series(state, series)
            random_entangled_state(rng)
            with pytest.raises(Validated):
                DensityMatrix(np.array(state.matrix))


class TestFifthMarginal:
    def test_maximally_mixed(self):
        state = DensityMatrix(np.eye(243) / 243)
        assert np.allclose(fifth_marginal(state).probs, [1 / 3] * 3,
                           atol=1e-14)

    def test_product_state_distribution(self):
        probs = ProbabilityVector(np.array([0.45, 0.17, 0.38]))
        psi5 = square_root_embed(probs).amplitudes
        rest = np.zeros(81, dtype=complex)
        rest[0] = 1.0
        psi = np.kron(rest, psi5)
        state = DensityMatrix(np.outer(psi, psi.conj()))
        assert np.allclose(fifth_marginal(state).probs, probs.probs,
                           atol=1e-12)

    def test_ghz_like_state(self):
        # (|11111> + |22222>)/sqrt(2) in 0-based levels 0 and 1
        idx0 = 0
        idx1 = sum(1 * 3 ** k for k in range(5))
        psi = np.zeros(243, dtype=complex)
        psi[idx0] = psi[idx1] = 1 / np.sqrt(2)
        state = DensityMatrix(np.outer(psi, psi.conj()))
        got = fifth_marginal(state).probs
        assert np.allclose(got, [0.5, 0.5, 0.0], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fifth_marginal(DensityMatrix(np.eye(9) / 9))

    def test_state_at_tolerance_edge(self):
        # eigenvalues just inside -STRUCTURAL_TOL sum to a marginal entry
        # below 0 by rounding at that tolerance; it is clipped to 0
        got = fifth_marginal(EDGE_STATE, (2, 2)).probs
        assert got.tolist() == [1 + 1e-10, 0.0]


class TestNoSignalling:
    def test_empty_series_pair(self):
        rng = np.random.default_rng(113)
        state = random_entangled_state(rng)
        dev = no_signalling_check(state, LocalSeries(()), LocalSeries(()))
        assert dev == 0.0

    def test_state_at_tolerance_edge(self):
        # both marginals clip the same below-zero entry; a permutation frame
        # moves no bit of the other
        swap = LocalSeries(((0, np.array([[0, 1], [1, 0]])),), (2, 2))
        dev = no_signalling_check(EDGE_STATE, LocalSeries((), (2, 2)), swap)
        assert dev == 0.0

    def test_random_suite(self):
        rng = np.random.default_rng(127)
        worst = 0.0
        for _ in range(20):
            state = random_entangled_state(rng)
            a = random_local_series(rng, 4)
            b = random_local_series(rng, 4)
            worst = max(worst, no_signalling_check(state, a, b))
        assert worst < 1e-10

    @pytest.mark.parametrize("dims", [(3,) * 5, (2, 3, 2), (2,) * 7])
    def test_matches_marginals_of_applied_series(self, dims):
        # the Heisenberg-picture marginals against the Schroedinger-picture
        # route, fifth_marginal of the evolved matrices
        rng = np.random.default_rng(163)
        for _ in range(3):
            state = random_entangled_state(rng, dims=dims)
            for a in multi_step_series(rng, dims):
                b = random_local_series(rng, 4, dims=dims)
                ma = fifth_marginal(apply_series(state, a), dims).probs
                mb = fifth_marginal(apply_series(state, b), dims).probs
                dev = no_signalling_check(state, a, b)
                assert abs(dev - np.max(np.abs(ma - mb))) <= 1e-15

    def test_catches_a_step_that_is_not_trace_preserving(self, monkeypatch):
        # mutant: every step drops its first outcome's projector, so it
        # loses probability and the series' fifth marginal moves
        original = nosignal._superoperator

        def broken(u):
            w = np.outer(u[:, 0], u[:, 0].conj()).reshape(-1)
            return original(u) - np.outer(w, w.conj())

        monkeypatch.setattr(nosignal, "_superoperator", broken)
        rng = np.random.default_rng(173)
        state = random_entangled_state(rng)
        series = random_local_series(rng, 4)
        try:
            dev = no_signalling_check(state, series, LocalSeries(()))
        except StateError:
            return
        assert dev > 1e-3

    def test_rejects_when_only_second_series_misfits(self):
        # a step that misfits the dims cannot be built; a series built on
        # other dims of the same total dimension reaches the check, which
        # rejects it in either position
        rng = np.random.default_rng(167)
        dims = (2, 3, 2)
        state = random_entangled_state(rng, dims=dims)
        good = random_local_series(rng, 4, dims=dims)
        for steps, match in ((((2, np.eye(2)),), "factor index"),
                             (((0, np.eye(3)),), "does not fit")):
            with pytest.raises(ValueError, match=match):
                LocalSeries(steps, dims)
        other = LocalSeries(((0, np.eye(3)),), (3, 2, 2))
        for pair in ((good, other), (other, good)):
            with pytest.raises(ValueError, match="different factor dims"):
                no_signalling_check(state, *pair)

    def test_rejects_state_of_other_dimension(self):
        state = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError) as err:
            apply_series(state, LocalSeries((), (3, 2)))
        assert str(err.value) == "state dim 4 does not match (3, 2)"


class TestMixedDims:
    DIMS = (2, 3, 3)

    def test_random_series_frames_fit_their_factors(self):
        rng = np.random.default_rng(131)
        series = random_local_series(rng, 12, dims=self.DIMS)
        assert {k for k, _ in series.steps} == {0, 1}
        for k, u in series.steps:
            assert u.shape == (self.DIMS[k], self.DIMS[k])

    def test_no_signalling(self):
        rng = np.random.default_rng(137)
        state = random_entangled_state(rng, dims=self.DIMS)
        a = random_local_series(rng, 4, dims=self.DIMS)
        b = random_local_series(rng, 4, dims=self.DIMS)
        assert no_signalling_check(state, a, b) < 1e-12


class TestManyFactors:
    DIMS = (2,) * 7

    def test_no_signalling(self):
        # series may address every factor but the last, past the fourth too
        rng = np.random.default_rng(149)
        state = random_entangled_state(rng, dims=self.DIMS)
        a = random_local_series(rng, 8, dims=self.DIMS)
        b = random_local_series(rng, 8, dims=self.DIMS)
        assert max(k for k, _ in a.steps + b.steps) >= 4
        assert no_signalling_check(state, a, b) < 1e-12
