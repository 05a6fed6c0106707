import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import mask_grouped_direct, mask_grouped_georep, per_start_dp
from sievesim.chains import (
    DEFICIT_CAP,
    ChainSpec,
    Pmf,
    barrier_chain_spec,
    chain_from_json,
    chain_to_json,
    empirical_pmf,
    exact_zero_decrement_pmf,
    exact_zero_decrement_pmfs,
    geometric_pmf,
    mixed_poisson_diagnostic,
    sample_geometric_rep,
    sample_zero_decrements,
    sieve_chain_spec,
)
from sievesim.randkit import RngStream
from sievesim.sieve import BetaW, ConstantW, LogParetoMixtureW, UniformW
from sievesim.stats import tv_distance


def geometric_target(width):
    return 2.0 ** -(np.arange(width) + 1.0)


CRITERION_1_CHAINS = {
    "uniform sieve": lambda: sieve_chain_spec(UniformW(), 60),
    "half-constant sieve": lambda: sieve_chain_spec(ConstantW(0.5), 60),
    "dyadic barrier": lambda: barrier_chain_spec(2.0 ** -np.arange(1, 61, dtype=float), 60),
}


def assert_same_pmf(got, want):
    assert got.masses.tobytes() == want.masses.tobytes()
    assert got.tail_deficit == want.tail_deficit


class TestPmf:
    def test_validation(self):
        Pmf(masses=np.array([0.5, 0.5]))
        Pmf(masses=np.array([0.5, 0.25]), tail_deficit=0.25)
        with pytest.raises(ValueError):
            Pmf(masses=np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            Pmf(masses=np.array([0.5, 0.3]))

    def test_empirical(self):
        pmf = empirical_pmf([0, 0, 1, 3])
        assert np.allclose(pmf.masses, [0.5, 0.25, 0.0, 0.25])
        assert pmf.tail_deficit == 0.0

    def test_geometric_with_deficit(self):
        pmf = geometric_pmf(0.5, 10)
        assert pmf.masses[0] == 0.5
        assert pmf.tail_deficit == pytest.approx(2.0**-10)


class TestPmfBookkeeping:
    """Every constructor of a Pmf accounts for all of the mass, and the
    total-variation distance between them is a metric bounded by 1."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=8),
           st.floats(min_value=0.1, max_value=1.0), st.integers(min_value=2, max_value=20),
           st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_masses_and_deficit_sum_to_one(self, weights, p1, n, success, width, seed):
        p = np.array([p1] + weights)
        spec = barrier_chain_spec(p / p.sum(), n)
        pmfs = [
            exact_zero_decrement_pmf(spec, n),
            geometric_pmf(success, width),
            empirical_pmf(sample_zero_decrements(spec, n, 200, RngStream(seed, 0).generator())),
        ]
        for pmf in pmfs:
            assert np.all(pmf.masses >= 0.0) and pmf.tail_deficit >= 0.0
            assert abs(pmf.masses.sum() + pmf.tail_deficit - 1.0) <= 1e-9
        for a in pmfs:
            assert tv_distance(a, a) == 0.0
            for b in pmfs:
                assert 0.0 <= tv_distance(a, b) <= 1.0
                assert tv_distance(a, b) == tv_distance(b, a)
                for c in pmfs:
                    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


class TestChainSpec:
    def test_row_length_and_sum_checks(self):
        with pytest.raises(ValueError):
            ChainSpec(floor=0, rows={1: np.array([0.5, 0.25])})
        with pytest.raises(ValueError):
            ChainSpec(floor=0, rows={1: np.array([0.3, 0.3])})
        with pytest.raises(ValueError):
            ChainSpec(floor=0, rows={2: np.array([1.0, 0.0, 0.0])})  # s_(2,1) = 0

    def test_missing_row_detected(self):
        spec = ChainSpec(floor=0, rows={1: np.array([0.5, 0.5])})
        with pytest.raises(ValueError):
            exact_zero_decrement_pmf(spec, 2)

    def test_row_access(self):
        spec = sieve_chain_spec(UniformW(), 5)
        assert np.allclose(spec.row(3), 0.25)
        assert spec.stay_prob(4) == pytest.approx(0.2)


class TestExactDp:
    def test_floor_start_is_point_mass(self):
        spec = sieve_chain_spec(UniformW(), 5)
        pmf = exact_zero_decrement_pmf(spec, 0)
        assert pmf.masses.tolist() == [1.0]

    def test_uniform_sieve_geometric(self):
        spec = sieve_chain_spec(UniformW(), 25)
        for n in (1, 2, 9, 25):
            pmf = exact_zero_decrement_pmf(spec, n)
            target = geometric_target(pmf.masses.size)
            assert np.abs(pmf.masses - target).max() <= 1e-10

    def test_constant_half_sieve_geometric(self):
        spec = sieve_chain_spec(ConstantW(0.5), 20)
        pmf = exact_zero_decrement_pmf(spec, 20)
        assert np.abs(pmf.masses - geometric_target(pmf.masses.size)).max() <= 1e-10

    def test_dyadic_barrier_geometric(self):
        p = 2.0 ** -np.arange(1, 61, dtype=float)
        spec = barrier_chain_spec(p, 60)
        for n in (2, 17, 60):
            pmf = exact_zero_decrement_pmf(spec, n)
            assert np.abs(pmf.masses - geometric_target(pmf.masses.size)).max() <= 1e-10

    def test_mass_conservation(self):
        spec = sieve_chain_spec(BetaW(2, 3), 40)
        pmf = exact_zero_decrement_pmf(spec, 40)
        assert pmf.masses.sum() + pmf.tail_deficit == pytest.approx(1.0, abs=1e-9)
        assert pmf.tail_deficit <= DEFICIT_CAP

    def test_unreachable_deficit_is_an_error(self):
        # stay probability 1 - 1e-7 needs ~10^8 counts to exhaust the mass
        spec = ChainSpec(floor=0, rows={1: np.array([1e-7, 1.0 - 1e-7])})
        with pytest.raises(RuntimeError):
            exact_zero_decrement_pmf(spec, 1)


class TestMultiStartDp:
    """One DP run for many start states gives, bit for bit, the law the
    per-start DP gives for each."""

    @pytest.mark.parametrize("name", sorted(CRITERION_1_CHAINS))
    def test_every_start_of_the_criterion_1_chains(self, name):
        spec = CRITERION_1_CHAINS[name]()
        starts = range(spec.floor, 61)
        for n, pmf in zip(starts, exact_zero_decrement_pmfs(spec, starts)):
            assert_same_pmf(pmf, per_start_dp(spec, n))
            assert_same_pmf(exact_zero_decrement_pmf(spec, n), pmf)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=10),
           st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=2, max_value=30),
           st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    def test_random_barrier_chains(self, weights, p1, n_max, starts):
        p = np.array([p1] + weights)
        spec = barrier_chain_spec(p / p.sum(), n_max)
        starts = [min(n, n_max) for n in starts]
        for n, pmf in zip(starts, exact_zero_decrement_pmfs(spec, starts)):
            assert_same_pmf(pmf, per_start_dp(spec, n))

    def test_error_names_the_first_unfinished_start(self):
        slow = 1.0 - 1e-7  # about 10^8 counts to exhaust the mass
        spec = ChainSpec(floor=0, rows={
            1: np.array([0.5, 0.5]),
            2: np.array([0.0, 1.0 - slow, slow]),
            3: np.array([0.0, 0.0, 1.0 - slow, slow]),
        })
        with pytest.raises(RuntimeError, match="^start state 3: "):
            exact_zero_decrement_pmfs(spec, [1, 3, 2])
        with pytest.raises(RuntimeError, match="^start state 2: "):
            exact_zero_decrement_pmfs(spec, [2, 1, 3])
        assert_same_pmf(exact_zero_decrement_pmfs(spec, [1])[0], per_start_dp(spec, 1))

    def test_rejects_bad_starts(self):
        spec = barrier_chain_spec([0.5, 0.5], 5)
        for starts in ([], [0, 3], [2, 6]):
            with pytest.raises(ValueError):
                exact_zero_decrement_pmfs(spec, starts)


class TestSieveChainSpec:
    def test_uniform_rows_are_flat(self):
        spec = sieve_chain_spec(UniformW(), 30)
        for i in (1, 7, 30):
            assert np.allclose(spec.row(i), 1.0 / (i + 1), rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        for wlaw in (BetaW(2, 3), BetaW(0.5, 1.5), ConstantW(0.3)):
            spec = sieve_chain_spec(wlaw, 80)
            for row in spec.rows.values():
                assert abs(row.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("wlaw", [UniformW(), BetaW(2, 3), BetaW(0.5, 1.5), ConstantW(0.3)])
    def test_moment_ratios_match_mixed_moments(self, wlaw):
        for i in (1, 5, 30):
            quotients = [wlaw.mixed_moment(j, i - j) / wlaw.mixed_moment(j - 1, i - j + 1)
                         for j in range(1, i + 1)]
            assert np.allclose(wlaw.moment_ratios(i), quotients, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["uniform", "beta", "const"]),
           st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0),
           st.integers(min_value=1, max_value=60))
    def test_rows_match_sequential_recurrence(self, family, a, b, n_max):
        wlaw = {"uniform": UniformW(), "beta": BetaW(a, b), "const": ConstantW(a / (a + b))}[family]
        spec = sieve_chain_spec(wlaw, n_max)
        for i in range(1, n_max + 1):
            ratios = wlaw.moment_ratios(i)
            row = np.empty(i + 1)
            row[0] = wlaw.mixed_moment(0, i)
            for j in range(1, i + 1):
                row[j] = row[j - 1] * ((i - j + 1) / j) * ratios[j - 1]
            row /= row.sum()
            assert np.allclose(spec.row(i), row, rtol=1e-13, atol=0.0)

    def test_rejects_laws_without_moments(self):
        with pytest.raises(ValueError):
            sieve_chain_spec(LogParetoMixtureW(0.6, 0.3), 10)


class TestBarrierChainSpec:
    def test_deterministic_unit_step(self):
        # single-step law: no stays are possible above the floor
        spec = barrier_chain_spec([1.0], 30)
        pmf = exact_zero_decrement_pmf(spec, 30)
        assert pmf.masses[0] == pytest.approx(1.0, abs=1e-12)
        assert sample_zero_decrements(spec, 30, 1, RngStream(1, 0)).tolist() == [0]
        assert sample_geometric_rep(spec, 30, 1, RngStream(1, 1)).tolist() == [0]

    def test_rejects_zero_first_step(self):
        with pytest.raises(ValueError):
            barrier_chain_spec([0.0, 1.0], 10)

    def test_geometric_tail_pmfs_converge(self):
        # finite-mean steps: the law stabilizes in the start state
        p = 0.4 * 0.6 ** np.arange(400, dtype=float)
        spec = barrier_chain_spec(p, 400)
        d200 = exact_zero_decrement_pmf(spec, 200)
        d400 = exact_zero_decrement_pmf(spec, 400)
        assert tv_distance(d200, d400) <= 0.01


class TestSamplers:
    @pytest.mark.parametrize("wlaw,label", [(UniformW(), "uniform"), (BetaW(2, 3), "beta23")])
    def test_simulation_matches_dp(self, wlaw, label):
        spec = sieve_chain_spec(wlaw, 30)
        dp = exact_zero_decrement_pmf(spec, 30)
        draws = sample_zero_decrements(spec, 30, 20_000, RngStream(2, 0))
        emp = empirical_pmf(draws, width=dp.masses.size)
        assert tv_distance(emp, dp) <= 0.02

    def test_geometric_representation_matches_dp(self):
        spec = sieve_chain_spec(BetaW(2, 3), 30)
        dp = exact_zero_decrement_pmf(spec, 30)
        draws = sample_geometric_rep(spec, 30, 20_000, RngStream(2, 1))
        emp = empirical_pmf(draws, width=dp.masses.size)
        assert tv_distance(emp, dp) <= 0.02

    def test_scalar_samplers_run(self):
        spec = sieve_chain_spec(UniformW(), 12)
        rng = RngStream(2, 2).generator()
        vals = {int(sample_zero_decrements(spec, 12, 1, rng)[0]) for _ in range(50)}
        vals |= {int(sample_geometric_rep(spec, 12, 1, rng)[0]) for _ in range(50)}
        assert all(v >= 0 for v in vals)

    def test_floor_start(self):
        spec = barrier_chain_spec([0.5, 0.5], 10)
        assert sample_zero_decrements(spec, 1, 1, RngStream(2, 3)).tolist() == [0]


class TestSamplerGrouping:
    """The argsort-grouped samplers draw exactly what the mask-grouped ones
    draw: states in ascending order, each state's replicates in index order."""

    @staticmethod
    def assert_both_match(spec, n, size, seed):
        for fast, slow in ((sample_zero_decrements, mask_grouped_direct),
                           (sample_geometric_rep, mask_grouped_georep)):
            got_rng, want_rng = RngStream(seed, 0).generator(), RngStream(seed, 0).generator()
            got = fast(spec, n, size, got_rng)
            assert got.tobytes() == slow(spec, n, size, want_rng).tobytes()
            assert got_rng.random() == want_rng.random()  # the streams stay aligned

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    @example(a=1.0, b=1.0, n_max=10, start=0, size=5, seed=1)  # start at the floor
    @example(a=2.0, b=3.0, n_max=25, start=25, size=1, seed=2)
    def test_sieve_chains(self, a, b, n_max, start, size, seed):
        self.assert_both_match(sieve_chain_spec(BetaW(a, b), n_max), min(start, n_max),
                               size, seed)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=12),
           st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(weights=[0.5], p1=0.5, n_max=8, start=1, size=7, seed=3)  # start at the floor
    @example(weights=[], p1=1.0, n_max=12, start=12, size=1, seed=4)
    def test_barrier_chains(self, weights, p1, n_max, start, size, seed):
        p = np.array([p1] + weights)
        self.assert_both_match(barrier_chain_spec(p / p.sum(), n_max), min(start, n_max),
                               size, seed)


class TestMixedPoissonDiagnostic:
    def test_poisson_pmf_exact(self):
        lam, width = 2.0, 60
        m = np.arange(width)
        masses = np.exp(-lam) * lam**m / np.array([math.factorial(k) for k in m])
        pmf = Pmf(masses=masses, tail_deficit=float(1.0 - masses.sum()))
        report = mixed_poisson_diagnostic(pmf)
        assert report.passed
        for r, phi in enumerate(report.factorial_moments, start=1):
            assert phi == pytest.approx(lam**r, rel=1e-9)
        assert abs(report.hankel2) <= report.hankel2_tol
        assert abs(report.hankel3) <= report.hankel3_tol

    def test_geometric_pmf_moments(self):
        report = mixed_poisson_diagnostic(geometric_pmf(0.5, 80))
        assert report.passed
        for r, phi in enumerate(report.factorial_moments, start=1):
            assert phi == pytest.approx(math.factorial(r), rel=1e-9)
        assert report.variance == pytest.approx(2.0, rel=1e-9)
        assert report.mean == pytest.approx(1.0, rel=1e-9)

    def test_overdispersed_sample_passes(self):
        rng = RngStream(3, 0).generator()
        lam = rng.exponential(size=50_000)
        report = mixed_poisson_diagnostic(rng.poisson(lam))
        assert report.passed

    def test_underdispersed_input_flagged(self):
        # Binomial(10, 1/2) has variance below its mean: not mixed Poisson
        from scipy.stats import binom

        masses = binom.pmf(np.arange(11), 10, 0.5)
        report = mixed_poisson_diagnostic(Pmf(masses=masses / masses.sum()))
        assert not report.passed
        assert report.violations

    def test_rejects_heavy_deficit(self):
        with pytest.raises(ValueError):
            mixed_poisson_diagnostic(Pmf(masses=np.array([0.5]), tail_deficit=0.5))


def assert_round_trip(spec):
    clone = chain_from_json(chain_to_json(spec))
    assert clone.floor == spec.floor
    assert set(clone.rows) == set(spec.rows)
    for i in spec.rows:
        assert np.array_equal(clone.rows[i], spec.rows[i])


class TestJsonRoundTrip:
    def test_round_trip_is_exact(self):
        assert_round_trip(sieve_chain_spec(BetaW(2, 3), 15))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0),
           st.integers(min_value=1, max_value=40))
    def test_sieve_round_trip_property(self, a, b, n_max):
        assert_round_trip(sieve_chain_spec(BetaW(a, b), n_max))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
           st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=2, max_value=40))
    @example(weights=[0.03], p1=0.29103494691815174, n_max=3)  # partial sum overshoots 1
    def test_barrier_round_trip_property(self, weights, p1, n_max):
        p = np.array([p1] + weights)
        assert_round_trip(barrier_chain_spec(p / p.sum(), n_max))

    def test_schema_shape(self):
        spec = barrier_chain_spec([0.5, 0.5], 4)
        payload = json.loads(chain_to_json(spec))
        assert payload["floor"] == 1
        assert set(payload["rows"]) == {"2", "3", "4"}
        assert all(isinstance(x, str) for x in payload["rows"]["3"])

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            chain_from_json(json.dumps({"floor": 0, "rows": {"1": ["0.5", "0.4"]}}))
