import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (falling_factorial_moments, per_replicate_direct, per_replicate_georep,
                     per_start_dp)
from sievesim import chains
from sievesim.chains import (
    _MAX_CHAIN_STATES,
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
    mixed_poisson_counts_diagnostic,
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
        with pytest.raises(ValueError, match="^row for state 1 sums to 0.75, not 1$"):
            ChainSpec(floor=0, probs=[0.5, 0.25])
        with pytest.raises(ValueError, match="^row for state 1 sums to "):
            ChainSpec(floor=0, probs=[0.3, 0.3])
        with pytest.raises(ValueError, match="^state 2 has s_\\(i,i-1\\) = 0"):
            ChainSpec(floor=0, probs=[0.5, 0.5, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^3 probabilities fill no whole number of rows$"):
            ChainSpec(floor=0, probs=[0.5, 0.5, 1.0])

    @pytest.mark.parametrize("probs", [[0.5, 0.5, 0.5, np.nan, 0.5], [1e-17, 1.0]],
                             ids=["nan", "sticky"])
    def test_rejects_nan_and_a_stay_that_rounds_to_one(self, probs):
        # NaN passes the sum check (abs(nan - 1) > tol is False); 1e-17 + 1.0
        # sums to 1 exactly, and 1 - s_(1,1) = 0 is no geometric success rate
        with pytest.raises(ValueError, match="non-finite|never leaves"):
            ChainSpec(floor=0, probs=np.array(probs))

    @pytest.mark.parametrize("entry,message", [(np.inf, "has non-finite entries"),
                                               (-0.1, "has negative entries"),
                                               (0.9, "sums to 1.5666666666666667, not 1")])
    def test_names_the_first_bad_state(self, entry, message):
        # uniform rows of states 1..4, state 2 spoiled and state 3 given a NaN:
        # each row's checks run before the next row's
        rows = [np.full(i + 1, 1.0 / (i + 1)) for i in range(1, 5)]
        rows[1][0], rows[2][0] = entry, np.nan
        with pytest.raises(ValueError, match=f"^row for state 2 {message}"):
            ChainSpec(floor=0, probs=np.concatenate(rows))

    @pytest.mark.parametrize("floor", [2.7, 2.0, True, False, "1", None])
    def test_floor_must_be_an_integer(self, floor):
        with pytest.raises(ValueError, match="^floor must be an integer, got "):
            ChainSpec(floor, [0.5, 0.5])

    def test_numpy_integer_floor(self):
        spec = ChainSpec(np.int64(2), [0.5, 0.5])
        assert (spec.floor, spec.n_max) == (2, 3)

    def test_n_max_fits_the_samplers_int64_states(self):
        top = int(np.iinfo(np.int64).max)
        spec = ChainSpec(top - 1, [0.5, 0.5])
        assert spec.n_max == top
        for sample in (sample_zero_decrements, sample_geometric_rep):
            assert sample(spec, top, 3, RngStream(2, 4).generator()).min() >= 0
        with pytest.raises(ValueError, match=r"n_max 9223372036854775808 exceeds 2\^63 - 1"):
            ChainSpec(top, [0.5, 0.5])

    def test_missing_row_detected(self):
        spec = ChainSpec(floor=0, probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            exact_zero_decrement_pmf(spec, 2)

    @pytest.mark.parametrize("wlaw", [UniformW(), BetaW(2, 3), ConstantW(0.3)], ids=repr)
    def test_sieve_rows_match_one_array_per_row(self, wlaw):
        # the builder writes its rows into one buffer; the values are those of
        # the recurrence run on a fresh array per row
        spec = sieve_chain_spec(wlaw, 80)
        for i in range(1, 81):
            j = np.arange(1, i + 1)
            row = np.cumprod(np.concatenate(([wlaw.mixed_moment(0, i)],
                                             (i - j + 1) / j * wlaw.moment_ratios(i))))
            assert spec.row(i).tobytes() == (row / row.sum()).tobytes()

    def test_row_access(self):
        spec = sieve_chain_spec(UniformW(), 5)
        assert spec.n_max == 5
        assert np.allclose(spec.row(3), 0.25)
        assert spec.row(4)[-1] == pytest.approx(0.2)
        assert np.shares_memory(spec.row(3), spec.probs)  # a view, not a copy
        for i in (0, 6):
            with pytest.raises(ValueError, match=f"^no transition row for state {i}$"):
                spec.row(i)


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
        spec = ChainSpec(floor=0, probs=np.array([1e-7, 1.0 - 1e-7]))
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
        spec = ChainSpec(floor=0, probs=np.concatenate([
            [0.5, 0.5],
            [0.0, 1.0 - slow, slow],
            [0.0, 0.0, 1.0 - slow, slow],
        ]))
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
            for i in range(1, 81):
                assert abs(spec.row(i).sum() - 1.0) <= 1e-12

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

    def test_rejects_more_states_than_the_cap(self):
        with pytest.raises(ValueError, match=f"n_max must lie in \\[1, {_MAX_CHAIN_STATES}\\]"):
            sieve_chain_spec(UniformW(), _MAX_CHAIN_STATES + 1)


class TestBarrierChainSpec:
    def test_deterministic_unit_step(self):
        # single-step law: no stays are possible above the floor
        spec = barrier_chain_spec([1.0], 30)
        pmf = exact_zero_decrement_pmf(spec, 30)
        assert pmf.masses[0] == pytest.approx(1.0, abs=1e-12)
        assert sample_zero_decrements(spec, 30, 1, RngStream(1, 0).generator()).tolist() == [0]
        assert sample_geometric_rep(spec, 30, 1, RngStream(1, 1).generator()).tolist() == [0]

    def test_rejects_zero_first_step(self):
        with pytest.raises(ValueError):
            barrier_chain_spec([0.0, 1.0], 10)

    def test_rejects_more_states_than_the_cap(self):
        with pytest.raises(ValueError, match=f"n_max must lie in \\[2, {_MAX_CHAIN_STATES}\\]"):
            barrier_chain_spec([0.5, 0.5], _MAX_CHAIN_STATES + 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
           st.integers(min_value=2, max_value=30))
    def test_strict_moves_are_the_step_law(self, weights, n_max):
        # s_{i,j} = p_{i-j} for j < i, and 0 for a step longer than the law's support
        p = np.array([1.0, *weights])
        p /= p.sum()
        spec = barrier_chain_spec(p, n_max)
        for i in range(2, n_max + 1):
            want = [p[i - j - 1] if i - j <= p.size else 0.0 for j in range(1, i)]
            assert spec.row(i)[:-1].tolist() == want

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
        draws = sample_zero_decrements(spec, 30, 20_000, RngStream(2, 0).generator())
        emp = empirical_pmf(draws, width=dp.masses.size)
        assert tv_distance(emp, dp) <= 0.02

    def test_geometric_representation_matches_dp(self):
        spec = sieve_chain_spec(BetaW(2, 3), 30)
        dp = exact_zero_decrement_pmf(spec, 30)
        draws = sample_geometric_rep(spec, 30, 20_000, RngStream(2, 1).generator())
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
        assert sample_zero_decrements(spec, 1, 1, RngStream(2, 3).generator()).tolist() == [0]
        assert sample_geometric_rep(spec, 1, 3, RngStream(2, 3).generator()).tolist() == [0] * 3


class _CountingGenerator:
    """A ``Generator`` that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestTableAndBisection:
    @staticmethod
    def assert_bisection_matches(spec, n, seed):
        cum, start, stay = spec.cum, spec.start, spec.stay
        states = range(spec.floor + 1, n + 1)
        rows = [cum[a:a + i - spec.floor + 1] for i, a in zip(states, start)]
        for i, row, s in zip(states, rows, stay):
            assert row.tobytes() == np.cumsum(spec.row(i)).tobytes()
            assert s == spec.row(i)[-1]
        # probes per row: every cumulative value (ties where the row has zero
        # entries), 0, a value just above the last and 2, plus uniforms
        rng = np.random.default_rng(seed)
        probes = [np.concatenate([row, [0.0, np.nextafter(row[-1], 2.0), 2.0],
                                  rng.random(4)]) for row in rows]
        k = np.repeat(np.arange(len(rows)), [p.size for p in probes])
        u = np.concatenate(probes)
        order = rng.permutation(u.size)  # rows interleaved, as replicates are
        k, u = k[order], u[order]
        for strict in (0, 1):
            top = k + 1 - strict  # the last position of the full row, or of its strict part
            got = chains._bisect(cum, start[k], top, u)
            want = [min(np.searchsorted(rows[r][:m + 1], x, side="right"), m)
                    for r, m, x in zip(k, top, u)]
            assert got.tolist() == want

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
    def test_sieve_rows(self, a, b, n_max, seed):
        self.assert_bisection_matches(sieve_chain_spec(BetaW(a, b), n_max), n_max, seed)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
                    max_size=12),
           st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=2, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(weights=[0.0, 0.0, 0.5], p1=0.5, n_max=10, seed=1)  # zero entries: ties
    @example(weights=[], p1=1.0, n_max=12, seed=2)  # unit steps: no stay, rows of zeros and one 1
    def test_barrier_rows(self, weights, p1, n_max, seed):
        p = np.array([p1] + weights)
        self.assert_bisection_matches(barrier_chain_spec(p / p.sum(), n_max), n_max, seed)

    @pytest.mark.parametrize("sampler,per_round", [(sample_zero_decrements, 1),
                                                   (sample_geometric_rep, 2)])
    def test_generator_calls_per_round(self, sampler, per_round, monkeypatch):
        # the dyadic barrier spreads 500 replicates over many states at once
        rounds, bisect = [], chains._bisect

        def counting_bisect(*args):
            rounds.append(args[-1].size)
            return bisect(*args)

        monkeypatch.setattr(chains, "_bisect", counting_bisect)
        spec = barrier_chain_spec(2.0 ** -np.arange(1, 201), 200)
        rng = _CountingGenerator(RngStream(7, 0).generator())
        sampler(spec, 200, 500, rng)
        assert rounds[0] == 500 and len(rounds) > 1
        assert rng.calls == per_round * len(rounds)


class TestSamplerGrouping:
    """The table-and-bisection samplers draw exactly what their per-replicate
    oracles draw, each round over the live replicates in index order: the
    direct one a uniform array, the embedded one a geometric array and then
    a uniform array."""

    @staticmethod
    def assert_both_match(spec, n, size, seed):
        for fast, slow in ((sample_zero_decrements, per_replicate_direct),
                           (sample_geometric_rep, per_replicate_georep)):
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
        report = mixed_poisson_counts_diagnostic([np.bincount(rng.poisson(lam))])
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


def _gradients(phi):
    """The gradients of the 2x2 and 3x3 Hankel determinants in phi."""
    return np.array([-2.0 * phi[0], 1.0, 0.0, 0.0]), chains._hankel3_grad(phi)


class TestMixedPoissonCounts:
    """The value-count form against the per-sample form of the oracle: phi
    and the mean are sums of integers below 2^53 over the size, so they keep
    their bits; the variance and the covariance behind the tolerances sum in
    another order."""

    def assert_matches_samples(self, samples, chunks=1, rel=1e-12):
        """Each tolerance within ``rel`` of the oracle's; with ``rel`` None,
        each squared tolerance within 1e-12 of the bound on its rounding,
        25 |g| |cov| |g|, which cancellation in g cov g can dwarf."""
        samples = np.asarray(samples)
        phi, cov, mean, variance = falling_factorial_moments(samples)
        forms = [g @ cov @ g for g in _gradients(phi)]
        want = chains._mixed_poisson_report(phi, mean, variance,
                                            *(5.0 * float(np.sqrt(q)) for q in forms))
        bounds = [25.0 * (np.abs(g) @ np.abs(cov) @ np.abs(g)) for g in _gradients(phi)]
        parts = [np.bincount(part) for part in np.array_split(samples, chunks)]
        for got in (mixed_poisson_counts_diagnostic([np.bincount(samples)]),
                    mixed_poisson_counts_diagnostic(parts)):
            assert got.factorial_moments == want.factorial_moments
            assert (got.mean, got.hankel2, got.hankel3) == (want.mean, want.hankel2, want.hankel3)
            assert got.variance == pytest.approx(want.variance, rel=1e-12)
            tols = (got.hankel2_tol, got.hankel3_tol)
            for tol, want_tol, form, bound in zip(tols, (want.hankel2_tol, want.hankel3_tol),
                                                  forms, bounds):
                if rel is None:
                    assert abs(tol**2 - 25.0 * form) <= 1e-12 * bound
                else:
                    assert tol == pytest.approx(want_tol, rel=rel, abs=1e-300)
            assert got.passed == want.passed

    def test_poisson_sample(self):
        self.assert_matches_samples(RngStream(4, 0).generator().poisson(3.0, size=100_000), 7)

    def test_geometric_sample(self):
        self.assert_matches_samples(RngStream(4, 1).generator().geometric(0.5, size=100_000) - 1, 7)

    def test_pinned_sieve_sample(self):
        # criterion 14's beta(2,1) sieve sample at its pinned size, chunk by chunk
        from sievesim import acceptance, runner

        stream, total, worker, payload, _ = acceptance.SAMPLES[14]
        parts = runner.run_chunks(worker, acceptance.DEFAULT_SEED, total, 2, payload, stream)
        empty = np.concatenate([table[:, 0] for table, _ in parts])
        self.assert_matches_samples(empty, len(parts))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 40), min_size=2, max_size=300), st.integers(1, 4))
    @example(samples=[0, 9, 24, 2, 14], chunks=1)  # the 3x3 tolerances differ by 1.1e-12 rel
    def test_small_integer_samples(self, samples, chunks):
        self.assert_matches_samples(samples, min(chunks, len(samples)), rel=None)

    @pytest.mark.parametrize("parts", [[np.array([0, 1])], [np.zeros(3, dtype=np.int64)]],
                             ids=["one-sample", "no-sample"])
    def test_needs_two_samples(self, parts):
        with pytest.raises(ValueError, match="at least two"):
            mixed_poisson_counts_diagnostic(parts)


def assert_round_trip(spec):
    clone = chain_from_json(chain_to_json(spec))
    assert (clone.floor, clone.n_max) == (spec.floor, spec.n_max)
    assert clone.probs.tobytes() == spec.probs.tobytes()


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

    @pytest.mark.parametrize("rows,state", [({"1": ["0.5", "0.5"], "3": ["0.5"] * 4 + ["0"]}, 2),
                                            ({"2": ["0.5"] * 3}, 1),
                                            ({"1": ["0.5", "0.5"], "2": ["0.5", "0.5"]}, 2)],
                             ids=["gap", "no-first-row", "short-row"])
    def test_rows_of_other_states_or_lengths_are_refused(self, rows, state, monkeypatch):
        # refused before the spec is built
        monkeypatch.setattr(chains, "ChainSpec", None)
        with pytest.raises(ValueError, match=f"^state {state} has no row of {state + 1} entries"):
            chain_from_json(json.dumps({"floor": 0, "rows": rows}))
