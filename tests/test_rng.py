import math

import numpy as np
import pytest
from scipy.special import ndtri

from sortcycles import rng
from sortcycles.errors import SortCyclesError

from .oracles import normal_icdf_masked

#: the ends of the uniforms' range and of each AS 241 branch: 2^-53 and
#: 1 - 2^-53, |p - 0.5| = 0.425 (central or tail), r = sqrt(-log p) = 5 (near
#: or far tail), and a p far below any uniform drawn
EDGE_POINTS = np.array([2.0 ** -53, 1.0 - 2.0 ** -53, 0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425,
                        math.exp(-25.0), 1.0 - math.exp(-25.0), 1e-300])


class TestBlockUniforms:
    def test_chunking_is_invisible(self):
        whole = rng.block_uniforms(7, "s", 0, 100)
        parts = np.vstack([rng.block_uniforms(7, "s", 0, 37),
                           rng.block_uniforms(7, "s", 37, 21),
                           rng.block_uniforms(7, "s", 58, 42)])
        assert np.array_equal(whole, parts)

    def test_labels_and_seeds_separate_streams(self):
        a = rng.block_uniforms(7, "a", 0, 10)
        b = rng.block_uniforms(7, "b", 0, 10)
        c = rng.block_uniforms(8, "a", 0, 10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_open_interval(self):
        u = rng.block_uniforms(0, "bounds", 0, 100_000).ravel()
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_extreme_words_stay_inside_the_open_interval(self):
        # the top word's (2^53 - 1/2) 2^-53 rounds to 1, where the normal
        # inverse cdf is NaN; it is clamped to the largest double below 1
        u = rng._word_uniforms(np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64))
        assert u.tolist() == [2.0 ** -54, 0.5, 1.0 - 2.0 ** -53]
        assert np.all(np.isfinite(rng.normal_icdf(u)))
        assert np.all(np.isfinite(rng.exponential_icdf(u, 1.0)))

    def test_the_clamp_moves_no_other_word(self):
        raw = np.random.default_rng(5).integers(0, 2 ** 64 - 2 ** 11, 100_000,
                                                 dtype=np.uint64, endpoint=False)
        plain = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        assert np.array_equal(rng._word_uniforms(raw), plain)

    def test_deterministic(self):
        assert np.array_equal(rng.block_uniforms(42, "x", 5, 8),
                              rng.block_uniforms(42, "x", 5, 8))

    def test_empty(self):
        assert rng.block_uniforms(1, "x", 0, 0).shape == (0, 4)

    @pytest.mark.parametrize("n_blocks", [2 ** 58, 10 ** 30])
    def test_counts_beyond_the_index_range_are_refused(self, n_blocks):
        # 2^58 blocks are 2^63 bytes of raw words, one more than an array can span
        with pytest.raises(SortCyclesError, match="largest array"):
            rng.block_uniforms(1, "x", 0, n_blocks)


class TestNormalICDF:
    def test_matches_scipy_to_machine_precision(self):
        u = np.random.default_rng(0).uniform(1e-13, 1 - 1e-13, 200_000)
        got = rng.normal_icdf(u)
        ref = ndtri(u)
        assert np.max(np.abs(got - ref)) < 5e-15

    def test_symmetry(self):
        u = np.linspace(1e-9, 0.5, 1000)
        assert np.allclose(rng.normal_icdf(u), -rng.normal_icdf(1.0 - u), atol=1e-13)

    def test_scalar_and_median(self):
        assert rng.normal_icdf(0.5) == 0.0
        assert rng.normal_icdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)

    def test_bit_identical_to_the_masked_evaluation(self):
        # 2^22 Philox uniforms, the edge points and each as a scalar
        u = np.concatenate([rng.block_uniforms(16, "icdf", 0, 1 << 20).ravel(), EDGE_POINTS])
        got, want = rng.normal_icdf(u), normal_icdf_masked(u)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for p in EDGE_POINTS:
            assert np.float64(rng.normal_icdf(p)).view(np.uint64) == \
                np.float64(normal_icdf_masked(p)).view(np.uint64), p

    def test_deep_tails_finite(self):
        u = np.array([1e-300, 1.0 - 1e-16])
        out = rng.normal_icdf(u)
        assert np.all(np.isfinite(out))
        assert out[0] < -35.0 and out[1] > 8.0


class TestLatinHypercube:
    def test_one_point_per_stratum_of_every_axis(self):
        pts = rng.latin_hypercube(7, "lhs", 9, 4)
        assert pts.shape == (9, 4)
        assert np.all((pts > 0.0) & (pts < 1.0))
        for col in pts.T:
            assert sorted(np.floor(col * 9).astype(int)) == list(range(9))

    def test_deterministic_and_batches_differ(self):
        a = rng.latin_hypercube(7, "lhs", 5, 3, batch=1)
        assert np.array_equal(a, rng.latin_hypercube(7, "lhs", 5, 3, batch=1))
        assert not np.any(a == rng.latin_hypercube(7, "lhs", 5, 3, batch=0))
        assert not np.any(a == rng.latin_hypercube(8, "lhs", 5, 3, batch=1))


class TestExponential:
    def test_inverse_cdf_round_trip(self):
        u = np.linspace(1e-6, 1 - 1e-6, 1000)
        x = rng.exponential_icdf(u, 2.5)
        assert np.allclose(1.0 - np.exp(-2.5 * x), u, atol=1e-12)

    def test_moments(self):
        u = rng.block_uniforms(3, "exp", 0, 500_000)[:, 0]
        x = rng.exponential_icdf(u, 2.0)
        assert np.mean(x) == pytest.approx(0.5, rel=0.01)
        assert np.var(x) == pytest.approx(0.25, rel=0.02)

