import numpy as np
import pytest
from scipy.special import ndtri

from sortcycles import rng


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

    def test_deterministic(self):
        assert np.array_equal(rng.block_uniforms(42, "x", 5, 8),
                              rng.block_uniforms(42, "x", 5, 8))

    def test_empty(self):
        assert rng.block_uniforms(1, "x", 0, 0).shape == (0, 4)


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


def test_chunk_ranges_cover_exactly():
    assert rng.chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert rng.chunk_ranges(4, 4) == [(0, 4)]
    assert rng.chunk_ranges(0, 4) == []
