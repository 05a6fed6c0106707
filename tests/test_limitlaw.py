import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from oracles import kanter_sine_form, levy_density
from sievesim.limitlaw import (
    AlphaBeta,
    _pathint_block,
    levy_tail_mass,
    mittag_leffler_moment,
    phi_alpha,
    sample_levy_jump,
    sample_mittag_leffler,
    sample_subordinator_marginal,
    sample_z_expfunctional,
    sample_z_pathint,
    z_moment,
)
from sievesim.randkit import RngStream, _standard_stable, sample_uniform01
from sievesim.stats import ks_one_sample, mc_accumulate


class TestAlphaBeta:
    def test_valid_region(self):
        AlphaBeta(0.5, 0.25)
        AlphaBeta(0.5, 0.5)
        AlphaBeta(0.5, 0.0)

    @pytest.mark.parametrize("a,b", [(0.5, 0.6), (1.0, 0.5), (0.0, 0.0), (-0.1, 0.0)])
    def test_invalid_region(self, a, b):
        with pytest.raises(ValueError):
            AlphaBeta(a, b)


class TestPhiAlpha:
    def test_zero(self):
        assert phi_alpha(0.5, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_known_values(self):
        # Gamma(1/2)Gamma(3/2)/Gamma(1) - 1 = pi/2 - 1
        assert phi_alpha(0.5, 1.0) == pytest.approx(math.pi / 2.0 - 1.0, rel=1e-12)
        # Gamma(1/2)Gamma(2)/Gamma(3/2) - 1 = 1
        assert phi_alpha(0.5, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_alpha(1.2, 1.0)
        with pytest.raises(ValueError):
            phi_alpha(0.5, -0.5)

    def test_product_identity(self):
        # prod_{k<=n} (phi(k)+1) telescopes to Gamma(1+n*a) * Gamma(1-a)^n
        for alpha in (0.2, 0.5, 0.8):
            for n in (1, 3, 6):
                prod = math.prod(phi_alpha(alpha, float(k)) + 1.0 for k in range(1, n + 1))
                closed = math.gamma(1.0 + n * alpha) * math.gamma(1.0 - alpha) ** n
                assert prod == pytest.approx(closed, rel=1e-10)


class TestMoments:
    def test_mittag_leffler_low_orders(self):
        assert mittag_leffler_moment(0.5, 1) == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert mittag_leffler_moment(0.5, 2) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_gamma_arguments_are_validated(self):
        # math.gamma is finite at negative non-integers, so an unchecked alpha
        # outside (0,1) would return a wrong number instead of raising
        for alpha in (-0.5, 1.5):
            with pytest.raises(ValueError):
                mittag_leffler_moment(alpha, 1)
            with pytest.raises(ValueError):
                sample_mittag_leffler(alpha, RngStream(1, 0))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            mittag_leffler_moment(0.5, 21)
        with pytest.raises(ValueError):
            z_moment(AlphaBeta(0.5, 0.25), 0)

    def test_exponential_case(self):
        for n in range(1, 7):
            assert z_moment(AlphaBeta(0.5, 0.5), n) == pytest.approx(
                math.factorial(n), rel=1e-10
            )

    def test_mittag_leffler_case(self):
        for alpha in (0.3, 0.6, 0.9):
            for n in range(1, 7):
                assert z_moment(AlphaBeta(alpha, 0.0), n) == pytest.approx(
                    mittag_leffler_moment(alpha, n), rel=1e-10
                )

    def test_mean_formula(self):
        # E Z = 1/((1-b) * B(1-a, 1+a-b)); oracle via scipy's beta function
        from scipy.special import beta as scipy_beta

        for a, b in [(0.5, 0.25), (0.6, 0.3), (0.9, 0.1)]:
            target = 1.0 / ((1.0 - b) * float(scipy_beta(1.0 - a, 1.0 + a - b)))
            assert z_moment(AlphaBeta(a, b), 1) == pytest.approx(target, rel=1e-10)

    def test_frozen_value(self):
        # 30-digit evaluation of the mean at (0.5, 0.25)
        assert z_moment(AlphaBeta(0.5, 0.25), 1) == pytest.approx(
            0.76275976350181319, rel=1e-12
        )


class TestLevyMeasure:
    def test_closed_form_tail(self):
        # frozen from (1 - e^(-0.2))^(-1/2) - 1
        assert levy_tail_mass(0.5, 0.1) == pytest.approx(1.3487561742605372, rel=1e-12)

    def test_tail_matches_quadrature(self):
        for alpha, eps in [(0.3, 0.05), (0.5, 0.1), (0.8, 0.5)]:
            oracle, err = quad(lambda t: levy_density(alpha, t), eps, np.inf, limit=200)
            assert levy_tail_mass(alpha, eps) == pytest.approx(oracle, rel=1e-8)

    def test_infinite_eps(self):
        assert levy_tail_mass(0.5, math.inf) == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=1e-4, max_value=5.0),
           st.floats(min_value=1.01, max_value=3.0))
    def test_tail_nonnegative_and_decreasing(self, alpha, eps, factor):
        lo = levy_tail_mass(alpha, eps)
        hi = levy_tail_mass(alpha, eps * factor)
        assert lo >= hi >= 0.0

    def test_jump_sampler_respects_floor(self):
        draws = sample_levy_jump(0.5, 0.1, RngStream(10, 0), size=50_000)
        assert np.all(draws >= 0.1)

    def test_jump_sampler_mean_vs_quadrature(self):
        alpha, eps = 0.5, 0.1
        mass = levy_tail_mass(alpha, eps)
        num, _ = quad(lambda t: t * levy_density(alpha, t), eps, np.inf, limit=200)
        oracle = num / mass
        draws = sample_levy_jump(alpha, eps, RngStream(11, 0), size=1_000_000)
        est = mc_accumulate(draws)
        assert abs(est.mean - oracle) <= 3.0 * est.stderr

class TestSubordinatorPath:
    # at beta = 0 the path-integral draw is h * #{i : X(ih) < 1}, the grid
    # first-passage time of level 1 by the subordinator X

    def test_first_passage_mean(self):
        # crossing time of level 1 has the Mittag-Leffler mean
        h = 0.02
        times = sample_z_pathint(AlphaBeta(0.5, 0.0), h, RngStream(14, 0), size=3000)
        est = mc_accumulate(times)
        target = mittag_leffler_moment(0.5, 1)
        assert abs(est.mean - target) <= 3.0 * est.stderr + h

    def test_grid_refinement_bias_bound(self):
        # first-passage discretization error is at most one grid step
        h = 0.04
        rng = RngStream(15, 0).generator()
        coarse = sample_z_pathint(AlphaBeta(0.5, 0.0), h, rng, size=4000)
        fine = sample_z_pathint(AlphaBeta(0.5, 0.0), h / 2, rng, size=4000)
        e1, e2 = mc_accumulate(coarse), mc_accumulate(fine)
        assert abs(e1.mean - e2.mean) <= h + 3.0 * (e1.stderr + e2.stderr)


class TestZSamplers:
    def test_pathint_beta_zero_is_grid_multiple(self):
        h = 1e-2
        draws = sample_z_pathint(AlphaBeta(0.5, 0.0), h, RngStream(16, 0), size=200)
        steps = draws / h
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_pathint_mean(self):
        draws = sample_z_pathint(AlphaBeta(0.5, 0.25), 1e-3, RngStream(17, 0), size=20_000)
        est = mc_accumulate(draws)
        target = z_moment(AlphaBeta(0.5, 0.25), 1)
        assert abs(est.mean - target) <= 3.0 * est.stderr + 0.02 * target

    def test_expfunctional_exponential_shortcircuit(self):
        draws = sample_z_expfunctional(AlphaBeta(0.5, 0.5), 1e-4, RngStream(18, 0), size=10_000)
        d = ks_one_sample(draws, lambda x: -np.expm1(-np.maximum(x, 0.0)))
        assert d <= 0.02

    def test_expfunctional_mean_beta_zero(self):
        draws = sample_z_expfunctional(AlphaBeta(0.5, 0.0), 1e-4, RngStream(19, 0), size=100_000)
        est = mc_accumulate(draws)
        target = 2.0 / math.pi
        assert abs(est.mean - target) <= 3.0 * est.stderr + 0.01 * target

    def test_mittag_leffler_sampler_moments(self):
        draws = sample_mittag_leffler(0.5, RngStream(20, 0), size=100_000)
        for order in (1, 2):
            est = mc_accumulate(draws**order)
            target = mittag_leffler_moment(0.5, order)
            assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_positive_outputs(self):
        draws = sample_z_pathint(AlphaBeta(0.5, 0.25), 1e-2, RngStream(21, 0), size=100)
        assert np.all(draws > 0.0)


class _UnitNormal:
    """Generator stand-in whose normal draws are all exactly 1.0."""

    def standard_normal(self, size=None):
        return np.ones(size)


def _replayed_pathint(alpha, beta, h, scale, rng):
    """Plain reference for one path-integral draw: replay the engine's
    (1, 64) increment blocks and add h * (1 - X)^(-beta) over the grid
    values X < 1 before the first X >= 1, starting with X(0) = 0."""
    total, x = h, 0.0
    while True:
        grid = x + np.cumsum(scale * _standard_stable(alpha, rng, size=(1, 64))[0])
        for value in map(float, grid):
            if not value < 1.0:
                return total
            total += h * (1.0 - value) ** -beta
        x = grid[-1]


class TestPathintReplay:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.0), (0.5, 0.25), (0.6, 0.0), (0.6, 0.3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_size_one_draw_equals_replayed_sum(self, alpha, beta, seed):
        h = 1e-3
        draw = sample_z_pathint(AlphaBeta(alpha, beta), h, RngStream(40, seed), size=1)
        scale = (math.gamma(1.0 - alpha) * h) ** (1.0 / alpha)
        ref = _replayed_pathint(alpha, beta, h, scale, RngStream(40, seed).generator())
        assert draw.shape == (1,)
        assert draw[0] == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_grid_value_at_one_counts_as_crossed(self, beta):
        # unit normals at alpha = 1/2 and scale 1 give increments of exactly
        # 0.5: the grid runs 0, 0.5, 1.0, and 1.0 is the crossing, so the
        # infinite weight (1 - 1.0)^(-beta) never enters the sum
        h = 0.1
        expected = h + h * 0.5**-beta
        assert _replayed_pathint(0.5, beta, h, 1.0, _UnitNormal()) == expected
        z = _pathint_block(0.5, beta, h, 1.0, _UnitNormal(), 3)
        np.testing.assert_allclose(z, expected, rtol=1e-15, atol=0.0)


def _levy_increments(alpha, rng, size):
    return 0.5 / np.square(rng.standard_normal(size=size))


def _sine_kanter_increments(alpha, rng, size):
    u = sample_uniform01(rng, size=size)
    return kanter_sine_form(alpha, u, rng.standard_exponential(size=size))


def _out_of_place_pathint(alpha, beta, h, scale, rng, n, increments):
    """Reference lockstep engine with every step out of place, drawing its
    increments from ``increments(alpha, rng, size)``."""
    z, x, active = np.zeros(n), np.zeros(n), np.arange(n)
    z += h
    while active.size:
        inc = scale * increments(alpha, rng, (active.size, 64))
        cum = x[active, None] + np.cumsum(inc, axis=1)
        below = cum < 1.0
        if beta != 0.0:
            weight = np.power(1.0 - cum, -beta, out=np.zeros_like(cum), where=below)
            z[active] += h * weight.sum(axis=1)
        else:
            z[active] += h * below.sum(axis=1)
        x[active] = cum[:, -1]
        active = active[below[:, -1]]
    return z


class _RecordingNormals(np.random.Generator):
    """Philox generator that records the shape of every normal block."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(seed))
        self.sizes = []

    def standard_normal(self, size=None, **kwargs):
        self.sizes.append(size)
        return super().standard_normal(size=size, **kwargs)


class TestPathintEngine:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    def test_levy_draws_equal_the_out_of_place_loop(self, beta):
        h, n = 1e-3, 256
        scale = (math.gamma(0.5) * h) ** 2.0
        z = _pathint_block(0.5, beta, h, scale, RngStream(41, 0).generator(), n)
        ref = _out_of_place_pathint(0.5, beta, h, scale, RngStream(41, 0).generator(), n,
                                    _levy_increments)
        assert np.array_equal(z, ref)

    @pytest.mark.parametrize("alpha,beta", [(0.6, 0.0), (0.6, 0.3), (0.75, 0.5)])
    def test_kanter_draws_match_the_sine_form_loop(self, alpha, beta):
        h, n = 1e-3, 256
        scale = (math.gamma(1.0 - alpha) * h) ** (1.0 / alpha)
        z = _pathint_block(alpha, beta, h, scale, RngStream(42, 0).generator(), n)
        ref = _out_of_place_pathint(alpha, beta, h, scale, RngStream(42, 0).generator(), n,
                                    _sine_kanter_increments)
        np.testing.assert_allclose(z, ref, rtol=1e-10, atol=0.0)

    @staticmethod
    def _exhaust(beta, budget, rng, n=64, h=1e-2):
        scale = (math.gamma(0.5) * h) ** 2.0
        with pytest.raises(RuntimeError, match=rf"budget of {budget} \(\d+ of {n} paths\)") as info:
            _pathint_block(0.5, beta, h, scale, rng, n, max_steps=budget)
        return int(re.search(r"\((\d+) of", str(info.value))[1])

    def test_budget_clips_the_last_block(self):
        rng = _RecordingNormals(43)
        k = self._exhaust(0.25, 100, rng)
        assert 0 < k < 64
        # every live path drew exactly the budget: a full block, then one clipped to it
        assert [size[1] for size in rng.sizes] == [64, 36]
        assert rng.sizes[0][0] == 64 and 64 > rng.sizes[1][0] >= k

    def test_budget_counts_the_paths_below_the_level(self):
        # a budget of two whole blocks leaves the stream as in an unbudgeted
        # run, where the paths still below 1 after 128 steps have z >= 129 h
        k = self._exhaust(0.0, 128, RngStream(44, 0).generator())
        h = 1e-2
        z = _pathint_block(0.5, 0.0, h, (math.gamma(0.5) * h) ** 2.0,
                           RngStream(44, 0).generator(), 64)
        assert 0 < k < 64
        assert k == int(np.sum(z > 128.5 * h))


class TestTruncatedMarginal:
    def test_laplace_with_drift(self):
        y = sample_subordinator_marginal(
            0.5, 1.0, 1e-3, RngStream(22, 0), size=30_000, small_jump_drift=True
        )
        vals = np.exp(-y)
        est = mc_accumulate(vals)
        target = math.exp(-phi_alpha(0.5, 1.0))
        assert abs(est.mean - target) <= 3.0 * est.stderr + 0.01 * target

    def test_truncation_bias_is_one_sided(self):
        # without drift the transform is overestimated (Y underestimated)
        y = sample_subordinator_marginal(0.8, 1.0, 1e-2, RngStream(23, 0), size=30_000)
        est = mc_accumulate(np.exp(-y))
        target = math.exp(-phi_alpha(0.8, 1.0))
        assert est.mean > target
