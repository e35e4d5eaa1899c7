import numpy as np
import pytest

from qcog.hilbert import frame_projectors, kron, partial_trace
from qcog.nosignal import (LocalSeries, apply_series, embed_local,
                           fifth_marginal, no_signalling_check,
                           random_entangled_state, random_local_series)
from qcog.states import (DensityMatrix, ProbabilityVector, lueders_update,
                         square_root_embed)

from .conftest import haar_unitary

DIMS = (3, 3, 3, 3, 3)


class TestLocalSeries:
    def test_rejects_fifth_factor(self):
        # the series itself accepts any index; applying it checks the index
        # against the space, whose last factor stays untouched
        state = random_entangled_state(np.random.default_rng(139))
        with pytest.raises(ValueError, match="factor index"):
            apply_series(state, LocalSeries(((4, np.eye(3)),)), DIMS)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            LocalSeries(((0, np.ones((3, 3))),))


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

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            embed_local(np.eye(3), 0, dims=(3,) * 7)


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
            fast = apply_series(state, LocalSeries(((factor, u),)),
                                dims=(3, 3, 3))
            dense = lueders_update(state, embed_local(u, factor, (3, 3, 3)))
            assert np.max(np.abs(fast.matrix - dense.matrix)) < 1e-12

    def test_mixed_dims_match_embedded_projector_route(self):
        rng = np.random.default_rng(109)
        dims = (2, 3, 3)
        state = random_entangled_state(rng, dims=dims)
        for factor in (0, 1):
            u = haar_unitary(rng, dims[factor])
            fast = apply_series(state, LocalSeries(((factor, u),)), dims)
            dense = lueders_update(state, embed_local(u, factor, dims))
            assert np.max(np.abs(fast.matrix - dense.matrix)) < 1e-12

    def test_rejects_index_outside_dims(self):
        # factor 3 is valid for five factors but not for three
        rng = np.random.default_rng(113)
        state = random_entangled_state(rng, dims=(3, 3, 3))
        with pytest.raises(ValueError, match="factor index"):
            apply_series(state, LocalSeries(((3, np.eye(3)),)), dims=(3, 3, 3))

    def test_rejects_frame_shape_outside_dims(self):
        rng = np.random.default_rng(127)
        state = random_entangled_state(rng, dims=(2, 3, 3))
        with pytest.raises(ValueError, match="does not fit"):
            apply_series(state, LocalSeries(((0, np.eye(3)),)), dims=(2, 3, 3))

    def test_product_state_marginal_untouched(self):
        rng = np.random.default_rng(107)
        probs = np.array([0.45, 0.17, 0.38])
        factors = [np.outer(v, v.conj()) for v in
                   (haar_unitary(rng, 3)[:, 0] for _ in range(4))]
        fifth = np.diag(probs).astype(complex)
        full = factors[0]
        for f in factors[1:]:
            full = kron(full, f)
        full = kron(full, fifth)
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


class TestNoSignalling:
    def test_empty_series_pair(self):
        rng = np.random.default_rng(113)
        state = random_entangled_state(rng)
        dev = no_signalling_check(state, LocalSeries(()), LocalSeries(()))
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
        assert no_signalling_check(state, a, b, dims=self.DIMS) < 1e-12


class TestManyFactors:
    DIMS = (2,) * 7

    def test_no_signalling(self):
        # series may address every factor but the last, past the fourth too
        rng = np.random.default_rng(149)
        state = random_entangled_state(rng, dims=self.DIMS)
        a = random_local_series(rng, 8, dims=self.DIMS)
        b = random_local_series(rng, 8, dims=self.DIMS)
        assert max(k for k, _ in a.steps + b.steps) >= 4
        assert no_signalling_check(state, a, b, dims=self.DIMS) < 1e-12
