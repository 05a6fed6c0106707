import math

import numpy as np
import pytest

from sievesim.randkit import RngStream, StableSpec, sample_stable, sample_uniform01


class TestStreams:
    def test_reproducible(self):
        a = RngStream(1234, 5).generator().random(100)
        b = RngStream(1234, 5).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_share_no_prefix(self):
        a = RngStream(1234, 0).generator().random(100)
        b = RngStream(1234, 1).generator().random(100)
        assert not np.any(a[:10] == b[:10])

    def test_uniform01_open_interval(self):
        u = sample_uniform01(RngStream(7, 0), size=100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_rejects_foreign_rng(self):
        with pytest.raises(TypeError):
            sample_uniform01(42)


class TestStableSampler:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StableSpec(alpha=1.0)
        with pytest.raises(ValueError):
            StableSpec(alpha=0.5, laplace_scale=0.0)
        with pytest.raises(ValueError):
            sample_stable(StableSpec(0.5), 0.0, RngStream(1, 0))

    def test_outputs_strictly_positive(self):
        draws = sample_stable(StableSpec(0.5), 1.0, RngStream(5, 0), size=100_000)
        assert np.all(draws > 0.0)

    def test_laplace_transform_unit_scale(self):
        # oracle: E exp(-S) = exp(-1) for the standard alpha=1/2 law
        draws = sample_stable(StableSpec(0.5, 1.0), 1.0, RngStream(6, 0), size=1_000_000)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-1.0)) <= 3.0 * se

    def test_laplace_transform_gamma_scale(self):
        scale = math.gamma(0.5)
        draws = sample_stable(StableSpec(0.5, scale), 1.0, RngStream(7, 0), size=1_000_000)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-scale)) <= 3.0 * se

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_laplace_transform_grid(self, alpha, s):
        spec = StableSpec(alpha, 1.0)
        draws = sample_stable(spec, 1.0, RngStream(8, int(10 * alpha + s)), size=100_000)
        vals = np.exp(-s * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-(s**alpha))) <= 4.0 * se

    def test_time_scaling(self):
        # increments over dt have transform exp(-dt * s^alpha)
        dt = 0.1
        draws = sample_stable(StableSpec(0.5, 1.0), dt, RngStream(9, 0), size=500_000)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-dt)) <= 4.0 * se
