import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as scipy_beta

from oracles import OccupancyResult, allocate_uniform
from sievesim.chains import empirical_pmf, geometric_pmf
from sievesim.randkit import RngStream
from sievesim.sieve import (
    BetaW,
    ConstantW,
    FrequencySeq,
    LogParetoMixtureW,
    UniformW,
    mean_empty_given_freqs,
    var_empty_given_freqs,
    normalization_ratio,
    sample_occupancy,
    limit_trend_experiment,
)
from sievesim.stats import ks_two_sample, mc_accumulate, tv_distance


class TestWLaws:
    @pytest.mark.parametrize("wlaw", [UniformW(), BetaW(2, 3), BetaW(0.5, 0.5),
                                      ConstantW(0.3), LogParetoMixtureW(0.6, 0.3)])
    def test_samples_inside_unit_interval(self, wlaw):
        draws = wlaw.sample(RngStream(1, 0).generator(), size=10_000)
        assert np.all((draws > 0.0) & (draws < 1.0))

    def test_uniform_mixed_moments(self):
        w = UniformW()
        # E W^j (1-W)^m = j! m! / (j+m+1)!
        assert w.mixed_moment(1, 1) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert w.mixed_moment(2, 3) == pytest.approx(
            math.factorial(2) * math.factorial(3) / math.factorial(6), rel=1e-12
        )

    def test_beta_mixed_moments_vs_beta_ratio(self):
        w = BetaW(2.0, 3.0)
        for j, m in [(0, 1), (1, 0), (2, 2), (5, 1)]:
            target = float(scipy_beta(2.0 + j, 3.0 + m) / scipy_beta(2.0, 3.0))
            assert w.mixed_moment(j, m) == pytest.approx(target, rel=1e-12)

    def test_beta_cdfs(self):
        w = BetaW(2.0, 5.0)
        rng = RngStream(1, 1).generator()
        draws = w.sample(rng, size=100_000)
        for x in (0.1, 0.3, 0.6):
            assert float(w.cdf(x)) == pytest.approx((draws <= x).mean(), abs=0.006)
            assert float(w.comp_cdf(x)) == pytest.approx((1.0 - draws <= x).mean(), abs=0.006)

    def test_mixture_exact_log_tails(self):
        w = LogParetoMixtureW(0.6, 0.3, p=0.5)
        for n in (3, 100, 10**6):
            log_n = math.log(n)
            assert float(w.cdf(1.0 / n)) == pytest.approx(0.5 * log_n**-0.6, rel=1e-12)
            assert float(w.comp_cdf(1.0 / n)) == pytest.approx(0.5 * log_n**-0.3, rel=1e-12)

    def test_mixture_tails_match_samples(self):
        w = LogParetoMixtureW(0.6, 0.3, p=0.5)
        draws = w.sample(RngStream(1, 2).generator(), size=200_000)
        x = 1.0 / 20.0
        assert float(w.cdf(x)) == pytest.approx((draws <= x).mean(), abs=0.005)
        assert float(w.comp_cdf(x)) == pytest.approx((1.0 - draws <= x).mean(), abs=0.005)

    def test_mixture_has_no_closed_moments(self):
        with pytest.raises(NotImplementedError):
            LogParetoMixtureW(0.6, 0.3).mixed_moment(1, 1)

    def test_mixture_index_zero_component(self):
        # beta = 0 swaps the second component for the slowly varying
        # log-decay tail: P{1-W <= 1/n} = (1-p)/(1 + log log n), log n >= 1
        w = LogParetoMixtureW(0.6, 0.0, p=0.5)
        draws = w.sample(RngStream(1, 3).generator(), size=20_000)
        assert np.all((draws > 0.0) & (draws < 1.0))
        for n in (10, 10**6):
            target = 0.5 / (1.0 + math.log(math.log(n)))
            assert float(w.comp_cdf(1.0 / n)) == pytest.approx(target, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BetaW(0.0, 1.0)
        for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                BetaW(a, b)
        with pytest.raises(ValueError):
            ConstantW(1.0)
        with pytest.raises(ValueError):
            LogParetoMixtureW(0.3, 0.6)


class TestFrequencySeq:
    def test_generative_extension(self):
        fs = FrequencySeq(UniformW(), RngStream(2, 0).generator())
        fs.extend_below(1e-6)
        q = fs.q
        assert q[0] == 1.0
        assert np.all(np.diff(q) < 0.0)
        assert q[-1] < 1e-6


def assert_batch_invariants(batch, balls):
    assert np.array_equal(batch.empty_in_range, batch.last_occupied - batch.occupied)
    assert np.all(batch.occupied <= batch.last_occupied)
    assert np.all(batch.occupied <= balls)
    assert np.all((batch.occupied >= 1) == (balls >= 1))


class StuckW(UniformW):
    """A law whose factor hits 1.0 in floats, which stalls the thinning."""

    def sample(self, rng, size):
        return np.ones(size)


class TestAllocators:
    def test_empty_allocation(self):
        res = allocate_uniform(UniformW(), 0, RngStream(3, 0).generator())
        assert (res.occupied, res.last_occupied, res.empty_in_range) == (0, 0, 0)
        for method in ("uniform", "multinomial"):
            batch = sample_occupancy(UniformW(), 0, 5, RngStream(3, 0).generator(), method=method)
            for field in (batch.occupied, batch.last_occupied, batch.empty_in_range):
                assert np.all(field == 0)

    def test_single_ball(self):
        rng = RngStream(3, 1).generator()
        for _ in range(200):
            res = allocate_uniform(UniformW(), 1, rng)
            assert res.occupied == 1
            assert res.empty_in_range == res.last_occupied - 1

    def test_invariants_on_random_runs(self):
        rng = RngStream(3, 2).generator()
        for n in (1, 7, 300):
            res = allocate_uniform(BetaW(2, 3), n, rng)
            assert res.empty_in_range == res.last_occupied - res.occupied
            assert 1 <= res.occupied <= min(n, res.last_occupied)
            assert_batch_invariants(sample_occupancy(BetaW(2, 3), n, 50, rng), n)

    def test_result_invariant_is_asserted(self):
        with pytest.raises(AssertionError):
            OccupancyResult(balls=1, occupied=2, last_occupied=2, empty_in_range=1)

    def test_degenerate_residual_is_flagged(self):
        # the remainder is dumped one box down and every replicate counted
        batch = sample_occupancy(StuckW(), 10, 40, RngStream(99, 0).generator())
        assert batch.truncated == 40
        assert np.all(batch.occupied == 1)
        assert_batch_invariants(batch, 10)

    def test_one_degenerate_replicate_is_isolated(self):
        # only the replicate whose factor degenerates is dumped; the rest of
        # the lockstep batch keeps thinning
        class OneStuckW(UniformW):
            calls = 0

            def sample(self, rng, size):
                w = super().sample(rng, size=size)
                if self.calls == 0:
                    w[0] = 1.0
                self.calls += 1
                return w

        batch = sample_occupancy(OneStuckW(), 100, 1000, RngStream(99, 1).generator())
        clean = sample_occupancy(UniformW(), 100, 1000, RngStream(99, 2).generator())
        assert batch.truncated == 1
        assert (batch.occupied[0], batch.last_occupied[0]) == (1, 1)
        assert abs(batch.last_occupied[1:].mean() - clean.last_occupied.mean()) <= 0.5
        assert_batch_invariants(batch, 100)

    def test_constant_half_box_is_geometric(self):
        # P_k = 2^-k, so a single ball lands in box k with probability 2^-k
        boxes = sample_occupancy(ConstantW(0.5), 1, 20_000, RngStream(3, 3).generator()).last_occupied
        emp = empirical_pmf(boxes - 1)
        assert tv_distance(emp, geometric_pmf(0.5, emp.masses.size)) <= 0.015

    def test_uniform_w_empty_count_is_geometric(self):
        rng = RngStream(3, 4).generator()
        empties = np.array(
            [allocate_uniform(UniformW(), 100, rng).empty_in_range for _ in range(100_000)]
        )
        emp = empirical_pmf(empties)
        assert tv_distance(emp, geometric_pmf(0.5, emp.masses.size)) <= 0.01

    def test_representation_equivalence(self):
        uni = sample_occupancy(UniformW(), 100, 100_000, RngStream(3, 5).generator(), method="uniform")
        mlt = sample_occupancy(UniformW(), 100, 100_000, RngStream(3, 6).generator(), method="multinomial")
        for field in ("occupied", "last_occupied", "empty_in_range"):
            d = ks_two_sample(getattr(uni, field), getattr(mlt, field))
            assert d <= 0.01, field

    def test_poissonized(self):
        batch = sample_occupancy(UniformW(), 0, 100, RngStream(3, 7).generator(), poissonized=True)
        assert np.all(batch.last_occupied == 0)
        # interval allocation with Poisson(30) ball counts is the oracle
        uni = sample_occupancy(UniformW(), 30, 10_000, RngStream(3, 8).generator(), method="uniform",
                               poissonized=True)
        mlt = sample_occupancy(UniformW(), 30, 10_000, RngStream(3, 10).generator(), poissonized=True)
        for field in ("occupied", "last_occupied", "empty_in_range"):
            d = ks_two_sample(getattr(uni, field), getattr(mlt, field))
            assert d <= 0.03, field

    def test_poissonized_empty_count_stays_geometric(self):
        batch = sample_occupancy(UniformW(), 100, 50_000, RngStream(3, 9).generator(), poissonized=True)
        emp = empirical_pmf(batch.empty_in_range)
        assert tv_distance(emp, geometric_pmf(0.5, emp.masses.size)) <= 0.015


class TestOccupancyProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=60),
           st.sampled_from([UniformW(), BetaW(2, 3), BetaW(0.5, 0.5), ConstantW(0.3)]),
           st.booleans(), st.integers(min_value=0, max_value=2**32))
    def test_lockstep_invariants(self, n, reps, wlaw, poissonized, seed):
        batch = sample_occupancy(wlaw, n, reps, RngStream(seed, 0).generator(), poissonized=poissonized)
        assert batch.occupied.shape == (reps,)
        assert batch.truncated == 0
        assert np.all(batch.occupied <= batch.last_occupied)
        assert np.array_equal(batch.empty_in_range, batch.last_occupied - batch.occupied)
        assert np.all((batch.occupied >= 1) == (batch.last_occupied >= 1))
        if not poissonized:
            assert_batch_invariants(batch, n)


def _allocate_loop(wlaw, n, reps, rng, freqs=None, poissonized=False):
    """The oracle: ``allocate_uniform`` once per replicate, each with its
    own Poisson(n) ball count when poissonized."""
    rng = rng.generator()
    rows = []
    for _ in range(reps):
        balls = int(rng.poisson(n)) if poissonized else n
        res = allocate_uniform(wlaw, balls, rng, freqs=freqs)
        rows.append((res.occupied, res.last_occupied, res.empty_in_range))
    return np.array(rows).T


class TestIntervalLockstep:
    """``sample_occupancy(method="uniform")`` against a loop of
    ``allocate_uniform``."""

    @pytest.mark.parametrize("wlaw,n,poissonized,fixed", [
        (UniformW(), 100, False, False),
        (BetaW(2, 3), 3, True, False),  # P{no ball} = e^-3
        (UniformW(), 50, True, True),
    ], ids=["uniform", "poissonized", "fixed-freqs"])
    def test_same_law_as_the_scalar_allocator(self, wlaw, n, poissonized, fixed):
        freqs = FrequencySeq(wlaw, RngStream(6, 0).generator()) if fixed else None
        batch = sample_occupancy(wlaw, n, 20_000, RngStream(6, 1).generator(), method="uniform",
                                 freqs=freqs, poissonized=poissonized)
        loop = _allocate_loop(wlaw, n, 20_000, RngStream(6, 2), freqs, poissonized)
        fields = (batch.occupied, batch.last_occupied, batch.empty_in_range)
        for name, got, expected in zip(("occupied", "last", "empty"), fields, loop):
            assert ks_two_sample(got, expected) <= 0.025, name
        if n == 3:
            # about 1000 replicates without a ball, each read as 0/0
            assert 0 < np.count_nonzero(batch.last_occupied == 0) < 2_000

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2**32))
    def test_equals_the_scalar_allocator_on_shared_frequencies(self, n, reps, seed):
        # with the frequencies fixed, both draw only the balls, row by row
        # from one stream, so they place the very same balls
        freqs = FrequencySeq(BetaW(2, 3), RngStream(seed, 1).generator())
        batch = sample_occupancy(BetaW(2, 3), n, reps, RngStream(seed, 0).generator(), method="uniform",
                                 freqs=freqs)
        loop = _allocate_loop(BetaW(2, 3), n, reps, RngStream(seed, 0), freqs)
        assert np.array_equal(np.stack([batch.occupied, batch.last_occupied,
                                        batch.empty_in_range]), loop.reshape(3, reps))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=40),
           st.sampled_from([UniformW(), BetaW(2, 3), BetaW(0.5, 0.5), ConstantW(0.3)]),
           st.booleans(), st.integers(min_value=0, max_value=2**32))
    def test_invariants(self, n, reps, wlaw, poissonized, seed):
        batch = sample_occupancy(wlaw, n, reps, RngStream(seed, 0).generator(), method="uniform",
                                 poissonized=poissonized)
        assert batch.occupied.shape == (reps,) and batch.truncated == 0
        assert np.array_equal(batch.empty_in_range, batch.last_occupied - batch.occupied)
        assert np.all(batch.occupied <= batch.last_occupied)
        # a replicate with no ball reads 0/0; any other occupies a box
        assert np.all((batch.occupied >= 1) == (batch.last_occupied >= 1))
        if n == 0:
            assert not batch.last_occupied.any()
        if not poissonized:
            assert_batch_invariants(batch, n)


class TestConditionalFormulas:
    def test_zero_time(self):
        fs = FrequencySeq(UniformW(), RngStream(4, 0).generator())
        assert mean_empty_given_freqs(fs, 0.0) == 0.0
        assert var_empty_given_freqs(fs, 0.0) == 0.0

    def test_single_term_hand_check(self):
        # W = 1/2 makes the residuals exactly 2^-k; the hand sum runs past
        # the depth the formula draws, by terms below 2^-60 in all
        fs = FrequencySeq(ConstantW(0.5), RngStream(4, 5).generator())
        q = [2.0 ** -k for k in range(80)]
        t = 1.0
        manual = sum(
            math.exp(-t * (q[k - 1] - q[k])) - math.exp(-t * q[k - 1]) for k in range(1, len(q))
        )
        assert mean_empty_given_freqs(fs, t) == pytest.approx(manual, rel=1e-12)
        assert np.array_equal(fs.q, q[:fs.q.size])
        first_term = math.exp(-t * 0.5) - math.exp(-t)
        assert manual >= first_term

    def test_variance_nonnegative(self):
        rng = RngStream(4, 1).generator()
        for t in (0.5, 10.0, 300.0):
            fs = FrequencySeq(BetaW(2, 1), rng)
            assert var_empty_given_freqs(fs, t) >= 0.0

    def test_formulas_match_replay_moments(self):
        freqs = FrequencySeq(UniformW(), RngStream(4, 2).generator())
        t = 100.0
        mean_f = mean_empty_given_freqs(freqs, t)
        var_f = var_empty_given_freqs(freqs, t)
        replay = sample_occupancy(
            UniformW(), 100, 10_000, RngStream(4, 3).generator(), freqs=freqs, poissonized=True
        ).empty_in_range
        est = mc_accumulate(replay)
        assert abs(est.mean - mean_f) <= 3.0 * est.stderr
        assert abs(np.var(replay, ddof=1) - var_f) / var_f <= 0.05

    def test_replay_extends_a_fresh_sequence(self):
        # the multinomial replay draws the residuals it reaches from the
        # sequence's own stream, so it places the balls a replay on the same
        # sequence drawn deep beforehand places
        fresh = FrequencySeq(UniformW(), RngStream(4, 6).generator())
        deep = FrequencySeq(UniformW(), RngStream(4, 6).generator())
        deep.extend_below(1e-300)
        got, want = (sample_occupancy(UniformW(), 100, 2_000, RngStream(4, 7).generator(),
                                      freqs=freqs, poissonized=True) for freqs in (fresh, deep))
        assert 1 < fresh.q.size < deep.q.size
        assert np.array_equal(fresh.q, deep.q[:fresh.q.size])
        for name in ("occupied", "last_occupied", "empty_in_range"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_poissonization_consistency(self):
        # unconditional mean of L equals the frequency-average of the formula
        rng = RngStream(4, 4).generator()
        formula_vals = np.empty(2000)
        for r in range(2000):
            fs = FrequencySeq(UniformW(), rng)
            formula_vals[r] = mean_empty_given_freqs(fs, 100.0)
        emp = sample_occupancy(UniformW(), 100, 20_000, rng, poissonized=True).empty_in_range
        e1, e2 = mc_accumulate(formula_vals), mc_accumulate(emp.astype(float))
        assert abs(e1.mean - e2.mean) <= 3.0 * (e1.stderr + e2.stderr)


class TestNormalizationRatio:
    def test_symmetric_is_one(self):
        for n in (3, 10, 1000):
            assert normalization_ratio(UniformW(), n) == pytest.approx(1.0, rel=1e-12)

    def test_mixture_closed_form(self):
        w = LogParetoMixtureW(0.6, 0.3, p=0.5)
        for n in (10, 10**4, 10**6):
            assert normalization_ratio(w, n) == pytest.approx(
                math.log(n) ** -0.3, rel=1e-12
            )

    def test_requires_n_at_least_three(self):
        with pytest.raises(ValueError):
            normalization_ratio(UniformW(), 2)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            normalization_ratio(ConstantW(0.5), 10)


class TestTrendExperiment:
    def test_rows_and_ranges(self):
        w = LogParetoMixtureW(0.6, 0.3, p=0.5)
        rng = RngStream(5, 0).generator()
        z = rng.exponential(size=2000)  # placeholder comparison sample
        rows = limit_trend_experiment(w, [100, 1000], 2000, rng, z_draws=z)
        assert [r.balls for r in rows] == [100, 1000]
        for r in rows:
            assert r.mean_normalized > 0.0
            assert 0.0 <= r.ks_vs_limit <= 1.0
            assert r.stderr > 0.0
