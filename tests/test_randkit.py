import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc

from oracles import kanter_sine_form
from sievesim.randkit import (
    RngStream,
    _kanter_stable,
    _standard_stable,
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

    def test_uniforms_are_the_lattice_of_53_bit_integers(self):
        # integers(0, 2**53) and random() read the same 53 bits of a draw
        g, h = RngStream(8, 0).generator(), RngStream(8, 0).generator()
        u = sample_uniform01(g, size=100_000)
        k = h.integers(0, 1 << 53, size=100_000)
        assert np.array_equal(u, np.minimum((k + 0.5) * 2.0**-53, 1.0 - 2.0**-53))
        assert sample_uniform01(g) == (h.integers(0, 1 << 53) + 0.5) * 2.0**-53
        assert g.random() == h.random()

    def test_lattice_ends_stay_inside_and_others_are_unmoved(self):
        # k = 2**53 - 1 gives k + 0.5 == 2**53 in float64 (ties to even)
        ks = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1])
        u = sample_uniform01(_Fixed(ks, ks.astype(float)), size=ks.size)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert u[0] == 2.0**-54 and u[-1] == 1.0 - 2.0**-53
        assert np.array_equal(u[:-1], (ks[:-1] + 0.5) * 2.0**-53)


def stable_draws(alpha, stream, size, scale=1.0):
    """Draws with Laplace transform exp(-scale * s**alpha): standard draws
    times scale**(1/alpha), as the path-integral sampler scales its
    increments."""
    return scale ** (1.0 / alpha) * _standard_stable(alpha, stream.generator(), size=size)


class TestStableSampler:
    def test_outputs_strictly_positive(self):
        draws = stable_draws(0.5, RngStream(5, 0), 100_000)
        assert np.all(draws > 0.0)

    def test_laplace_transform_unit_scale(self):
        # oracle: E exp(-S) = exp(-1) for the standard alpha=1/2 law
        draws = stable_draws(0.5, RngStream(6, 0), 1_000_000)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-1.0)) <= 3.0 * se

    def test_laplace_transform_gamma_scale(self):
        scale = math.gamma(0.5)
        draws = stable_draws(0.5, RngStream(7, 0), 1_000_000, scale)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-scale)) <= 3.0 * se

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_laplace_transform_grid(self, alpha, s):
        draws = stable_draws(alpha, RngStream(8, int(10 * alpha + s)), 100_000)
        vals = np.exp(-s * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-(s**alpha))) <= 4.0 * se

    def test_time_scaling(self):
        # increments over dt have transform exp(-dt * s^alpha)
        dt = 0.1
        draws = stable_draws(0.5, RngStream(9, 0), 500_000, dt)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-dt)) <= 4.0 * se


class _Fixed(np.random.Generator):
    """Generator whose ``random`` returns the 53-bit lattice points k 2^-53
    of the given integers and whose ``standard_exponential`` returns the
    given floats, reshaped to the size asked for."""

    def __init__(self, ks, es):
        super().__init__(np.random.Philox(0))
        self.ks, self.es = np.asarray(ks), np.asarray(es, dtype=float)

    def random(self, size=None, **kwargs):
        return (self.ks * 2.0**-53).reshape(size)

    def standard_exponential(self, size=None, **kwargs):
        return self.es.reshape(size)


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
        draws = stable_draws(0.5, RngStream(30, 0), n)
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


_ORACLE_ALPHAS = [0.05, 0.3, 0.6, 0.75, 0.95]


class TestKanterHalfAngles:
    """The tan half-angle form of Kanter's A(u) against the sine form, fed
    the same (U, E)."""

    @pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
    def test_lattice_ends_and_small_u(self, alpha):
        ks = np.array([0, 2**53 - 1, round(1e-12 * 2.0**53), 1, 2**52, 2**53 - 2])
        es = np.array([1.0, 1.0, 1.0, 1e-3, 0.5, 30.0])
        u = sample_uniform01(_Fixed(ks, es), size=ks.size)
        assert u[0] == 2.0**-54 and u[1] == 1.0 - 2.0**-53
        assert u[2] == pytest.approx(1e-12, rel=1e-3)
        s = _kanter_stable(alpha, _Fixed(ks, es), size=ks.size)
        assert np.all(np.isfinite(s) & (s > 0.0))
        np.testing.assert_allclose(s, kanter_sine_form(alpha, u, es), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
    def test_replayed_stream(self, alpha):
        g = RngStream(33, 0).generator()
        u = sample_uniform01(g, size=(64, 64))
        e = g.standard_exponential(size=(64, 64))
        s = _kanter_stable(alpha, RngStream(33, 0).generator(), size=(64, 64))
        assert s.shape == (64, 64)
        np.testing.assert_allclose(s, kanter_sine_form(alpha, u, e), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
    def test_scalar_draw_is_a_scalar_from_the_same_stream(self, alpha):
        g = RngStream(34, 0).generator()
        u, e = sample_uniform01(g), g.standard_exponential()
        rng = RngStream(34, 0).generator()
        s = _standard_stable(alpha, rng)
        assert isinstance(s, np.float64) and np.ndim(s) == 0
        assert s == pytest.approx(kanter_sine_form(alpha, u, e), rel=1e-12, abs=0.0)
        assert rng.random() == g.random()
        assert _standard_stable(alpha, RngStream(34, 0).generator(), size=()) == s

    @pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
    def test_zero_exponential_is_an_infinite_increment(self, alpha):
        with np.errstate(divide="ignore"):
            s = _kanter_stable(alpha, _Fixed([2**52, 7], [0.0, 0.0]), size=2)
            ref = kanter_sine_form(alpha, np.array([0.5, 7.5 * 2.0**-53]), np.zeros(2))
        assert np.all(np.isposinf(s)) and np.all(np.isposinf(ref))
