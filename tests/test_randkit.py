import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc

from sievesim.randkit import (
    RngStream,
    StableSpec,
    _kanter_stable,
    _standard_stable,
    sample_stable,
    sample_uniform01,
)
from sievesim.stats import ks_one_sample, ks_two_sample


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


class _ZeroNormal:
    """Generator stand-in whose normal draws are all exactly 0.0."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestLevyRoute:
    """At alpha = 1/2 the sampler draws 1/(2*N^2); Kanter's construction,
    kept callable at every alpha, is its independent reference."""

    def test_exact_levy_cdf(self):
        # P{S <= x} = P{|N| >= 1/sqrt(2x)} = erfc(1/(2*sqrt(x)))
        n = 200_000
        draws = sample_stable(StableSpec(0.5), 1.0, RngStream(30, 0), size=n)
        d = ks_one_sample(draws, lambda x: erfc(0.5 / np.sqrt(x)))
        assert d <= 1.63 / math.sqrt(n)  # 1% critical value

    def test_matches_kanter_at_one_half(self):
        n = 100_000
        levy = _standard_stable(0.5, RngStream(31, 0).generator(), size=n)
        kanter = _kanter_stable(0.5, RngStream(31, 1).generator(), size=n)
        assert ks_two_sample(levy, kanter) <= 1.63 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("size", [None, 5, (2, 3)])
    def test_zero_normal_is_an_infinite_increment(self, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _standard_stable(0.5, _ZeroNormal(), size=size)
        assert np.shape(s) == (() if size is None else np.empty(size).shape)
        assert np.all(np.isposinf(s))

    def test_other_alphas_use_kanter_unchanged(self):
        for alpha in (0.3, 0.6, 0.75):
            a = _standard_stable(alpha, RngStream(32, 0).generator(), size=1000)
            b = _kanter_stable(alpha, RngStream(32, 0).generator(), size=1000)
            assert np.array_equal(a, b)
