import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sievesim.chains import Pmf
from sievesim.randkit import RngStream
from sievesim.stats import ks_one_sample, ks_two_sample, mc_accumulate, mc_merge, tv_distance


class TestKs:
    def test_identical_samples(self):
        xs = np.linspace(0, 1, 50)
        assert ks_two_sample(xs, xs) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([0.0, 1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_symmetry(self):
        rng = RngStream(1, 0).generator()
        xs, ys = rng.random(500), rng.random(400) + 0.1
        assert ks_two_sample(xs, ys) == ks_two_sample(ys, xs)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_one_sample_uniform(self):
        xs = RngStream(2, 0).generator().random(20_000)
        d = ks_one_sample(xs, lambda x: np.clip(x, 0.0, 1.0))
        assert d <= 0.02

    def test_one_sample_detects_shift(self):
        xs = RngStream(2, 1).generator().random(5000) + 0.3
        d = ks_one_sample(xs, lambda x: np.clip(x, 0.0, 1.0))
        assert d >= 0.25

    def test_exponential_vs_limit_law_sampler(self):
        # the limit law degenerates to Exp(1) when both indices coincide
        from sievesim.limitlaw import AlphaBeta, sample_z_pathint

        rng = RngStream(2, 2).generator()
        xs = rng.exponential(size=10_000)
        ys = sample_z_pathint(AlphaBeta(0.5, 0.5), 1e-4, rng, size=10_000)
        assert ks_two_sample(xs, ys) <= 0.02


class TestTv:
    def test_equal(self):
        assert tv_distance(Pmf([0.5, 0.5]), Pmf([0.5, 0.5])) == 0.0

    def test_point_masses(self):
        assert tv_distance(Pmf([1.0, 0.0]), Pmf([0.0, 1.0])) == 1.0

    def test_pads_shorter_support(self):
        assert tv_distance(Pmf([1.0]), Pmf([0.5, 0.5])) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_triangle_inequality_and_bounds(self, a, b, c):
        def norm(v):
            t = sum(v)
            return Pmf(np.asarray(v) / t if t > 0 else np.ones(len(v)) / len(v))

        p, q, r = norm(a), norm(b), norm(c)
        d_pq, d_qr, d_pr = tv_distance(p, q), tv_distance(q, r), tv_distance(p, r)
        for d in (d_pq, d_qr, d_pr):
            assert -1e-12 <= d <= 1.0 + 1e-12
        assert d_pr <= d_pq + d_qr + 1e-12
        assert d_pq == tv_distance(q, p)


class TestAccumulator:
    def test_constant_stream(self):
        est = mc_accumulate([3.0] * 100)
        assert est.mean == 3.0
        assert est.stderr == 0.0
        assert est.count == 100

    def test_alternating_bernoulli(self):
        est = mc_accumulate([0.0, 1.0] * 5000)
        assert est.mean == pytest.approx(0.5)
        assert est.stderr == pytest.approx(0.005, rel=1e-3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mc_accumulate([])


def _chunks(values, cuts):
    """``values`` split at the sorted distinct ``cuts`` inside it."""
    bounds = [0, *sorted({c for c in cuts if 0 < c < values.size}), values.size]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


class TestMerge:
    # values in [-1, 1] with both ends present: the sum of squared deviations
    # is at least 2, so the data are well conditioned and the pooled moments
    # agree with the one-pass ones to rounding
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=hnp.arrays(np.float64, st.integers(0, 300),
                             elements=st.floats(-1.0, 1.0, allow_subnormal=False))
           .map(lambda v: np.concatenate([[-1.0], v, [1.0]])),
           cuts=st.lists(st.integers(1, 301), max_size=8))
    def test_any_split_pools_to_the_whole_sample(self, values, cuts):
        whole = mc_accumulate(values)
        assert whole.mean == float(values.mean())
        assert whole.stderr == float(values.std(ddof=1) / np.sqrt(values.size))
        # one chunk is the whole sample, bit for bit
        assert mc_merge([whole]) == whole
        parts = [mc_accumulate(c) for c in _chunks(values, cuts)]
        pooled = mc_merge(parts)
        assert pooled.count == whole.count
        assert pooled.mean == pytest.approx(whole.mean, rel=1e-12, abs=1e-12)
        assert pooled.m2 == pytest.approx(whole.m2, rel=1e-12)
        assert pooled.stderr == pytest.approx(whole.stderr, rel=1e-12)
        # a left fold in chunk order: pooling a prefix first changes no bit
        for k in range(1, len(parts)):
            assert mc_merge([mc_merge(parts[:k]), *parts[k:]]) == pooled
