import math
import warnings

import numpy as np
import pytest
from scipy.special import erf, erfc

from oracles import kanter_sine_form, levy_pair_draws, levy_pair_form
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
        u = sample_uniform01(RngStream(7, 0).generator(), size=100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniforms_are_the_lattice_of_53_bit_integers(self):
        # integers(0, 2**53) and random() read the same 53 bits of a draw
        g, h = RngStream(8, 0).generator(), RngStream(8, 0).generator()
        u = sample_uniform01(g, size=100_000)
        k = h.integers(0, 1 << 53, size=100_000)
        assert np.array_equal(u, np.minimum((k + 0.5) * 2.0**-53, 1.0 - 2.0**-53))
        assert sample_uniform01(g, size=1)[0] == (h.integers(0, 1 << 53) + 0.5) * 2.0**-53
        assert g.random() == h.random()

    def test_uniforms_into_a_given_array(self):
        out = np.empty((4, 25))
        u = sample_uniform01(RngStream(9, 0).generator(), size=(4, 25), out=out)
        assert u is out
        assert np.array_equal(u, sample_uniform01(RngStream(9, 0).generator(), size=(4, 25)))

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
    given floats, reshaped to the size asked for or written into ``out``."""

    def __init__(self, ks, es):
        super().__init__(np.random.Philox(0))
        self.ks, self.es = np.asarray(ks), np.asarray(es, dtype=float)

    @staticmethod
    def _give(values, size, out):
        if out is None:
            return values.reshape(size)
        out[...] = values.reshape(out.shape)
        return out

    def random(self, size=None, dtype=np.float64, out=None):
        return self._give(self.ks * 2.0**-53, size, out)

    def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
        return self._give(self.es, size, out)


class TestLevyRoute:
    """At alpha = 1/2 the sampler draws two Levy values per (U, E) pair,
    1/(4E cos^2(pi U/2)) and 1/(4E sin^2(pi U/2)); Kanter's construction,
    kept callable at every alpha, is its independent reference.  Every KS
    tolerance is the 1% point of the KS law, 1.63/sqrt(n)."""

    def test_exact_levy_cdf(self):
        # P{S <= x} = P{|N| >= 1/sqrt(2x)} = erfc(1/(2*sqrt(x)))
        n = 200_000
        draws = stable_draws(0.5, RngStream(30, 0), n)
        d = ks_one_sample(draws, lambda x: erfc(0.5 / np.sqrt(x)))
        assert d <= 1.63 / math.sqrt(n)  # 1% critical value

    @pytest.mark.parametrize("half", [0, 1])
    def test_each_half_is_levy(self, half):
        n = 200_000
        draws = _standard_stable(0.5, RngStream(35, 0).generator(), size=2 * n)
        d = ks_one_sample(draws[half * n:(half + 1) * n], lambda x: erfc(0.5 / np.sqrt(x)))
        assert d <= 1.63 / math.sqrt(n)

    def test_minimum_of_a_pair_has_the_independent_law(self):
        # two independent Levy draws: P{min > x} = erf(1/(2*sqrt(x)))^2
        n = 200_000
        draws = _standard_stable(0.5, RngStream(36, 0).generator(), size=2 * n)
        low = np.minimum(draws[:n], draws[n:])
        d = ks_one_sample(low, lambda x: 1.0 - erf(0.5 / np.sqrt(x)) ** 2)
        assert d <= 1.63 / math.sqrt(n)

    def test_matches_kanter_at_one_half(self):
        n = 100_000
        levy = _standard_stable(0.5, RngStream(31, 0).generator(), size=n)
        kanter = _kanter_stable(0.5, RngStream(31, 1).generator(), size=n)
        assert ks_two_sample(levy, kanter) <= 1.63 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("size", [1, 5, 7, 64, (2, 3), (3, 5)])
    def test_pair_form_from_the_same_stream(self, size):
        # a size-k call consumes ceil(k/2) uniforms, then ceil(k/2) exponentials
        g = RngStream(37, 0).generator()
        ref = levy_pair_draws(g, size)
        rng = RngStream(37, 0).generator()
        s = _standard_stable(0.5, rng, size=size)
        assert s.shape == np.empty(size).shape
        np.testing.assert_allclose(s, ref, rtol=1e-12, atol=0.0)
        assert rng.random() == g.random()

    def test_pair_form_at_the_lattice_ends(self):
        ks = np.array([0, 2**53 - 1, round(1e-12 * 2.0**53), 1, 2**52, 2**53 - 2])
        es = np.array([1.0, 1.0, 1.0, 1e-3, 0.5, 30.0])
        s = _standard_stable(0.5, _Fixed(ks, es), size=2 * ks.size)
        u = sample_uniform01(_Fixed(ks, es), size=ks.size)
        assert np.all(np.isfinite(s) & (s > 0.0))
        np.testing.assert_allclose(s, np.concatenate(levy_pair_form(u, es)), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("size", [5, 1, (2, 3)])
    def test_zero_exponential_is_an_infinite_increment(self, size):
        k = int(np.prod(size))
        half = k - k // 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _standard_stable(0.5, _Fixed([2**52] * half, [0.0] * half), size=size)
        assert s.shape == np.empty(size).shape
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
        # a single draw is a size-1 call, and it consumes one (U, E) pair
        g = RngStream(34, 0).generator()
        u, e = sample_uniform01(g, size=1), g.standard_exponential(size=1)
        rng = RngStream(34, 0).generator()
        s = _standard_stable(alpha, rng, size=1)
        assert s.shape == (1,)
        np.testing.assert_allclose(s, kanter_sine_form(alpha, u, e), rtol=1e-12, atol=0.0)
        assert rng.random() == g.random()

    @pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
    def test_zero_exponential_is_an_infinite_increment(self, alpha):
        with np.errstate(divide="ignore"):
            s = _kanter_stable(alpha, _Fixed([2**52, 7], [0.0, 0.0]), size=2)
            ref = kanter_sine_form(alpha, np.array([0.5, 7.5 * 2.0**-53]), np.zeros(2))
        assert np.all(np.isposinf(s)) and np.all(np.isposinf(ref))
