import math

import numpy as np
import pytest

from oracles import (
    WalkPath,
    busy_server_count,
    empty_box_functional,
    generate_path,
    renewal_count,
    weighted_window_statistic,
)
from sievesim import walks
from sievesim.limitlaw import mittag_leffler_moment, z_moment, AlphaBeta
from sievesim.randkit import RngStream
from sievesim.stats import mc_accumulate
from sievesim.walks import (
    FUNCTIONALS,
    ConstantLaw,
    ExponentialLaw,
    LogDecayLaw,
    ParetoLaw,
    PrwLaw,
    renewal_function_estimate,
    walk_functionals,
)

UNIT_STEP = PrwLaw.independent(ConstantLaw(1.0), ConstantLaw(0.0))


class TestMarginals:
    def test_pareto_tail_and_sampler(self):
        law = ParetoLaw(0.5)
        assert law.tail(0.5) == 1.0
        assert law.tail(4.0) == pytest.approx(0.5)
        draws = law.sample(RngStream(1, 0).generator(), size=100_000)
        assert np.all(draws >= 1.0)
        emp = (draws > 4.0).mean()
        assert emp == pytest.approx(0.5, abs=0.005)

    def test_exponential_tail(self):
        law = ExponentialLaw(2.0)
        assert law.tail(0.0) == 1.0
        assert law.tail(2.0) == pytest.approx(math.exp(-1.0))

    def test_constant_tail(self):
        law = ConstantLaw(3.0)
        assert law.tail(2.9) == 1.0
        assert law.tail(3.0) == 0.0

    def test_log_decay_tail_and_sampler(self):
        law = LogDecayLaw()
        assert law.tail(1.0) == 1.0
        assert law.tail(math.e) == pytest.approx(0.5)
        draws = law.sample(RngStream(2, 0).generator(), size=50_000)
        emp = (draws > math.e).mean()
        assert emp == pytest.approx(0.5, abs=0.01)


class TestPrwLaw:
    def test_requires_exactly_one_eta_mode(self):
        with pytest.raises(ValueError):
            PrwLaw(xi_law=ParetoLaw(0.5))
        with pytest.raises(ValueError):
            PrwLaw(xi_law=ParetoLaw(0.5), eta_law=ConstantLaw(0.0), multiplier=1.0)

    def test_rejects_degenerate_xi(self):
        with pytest.raises(ValueError):
            PrwLaw.independent(ConstantLaw(0.0), ConstantLaw(1.0))

    def test_coupled_tails(self):
        law = PrwLaw.coupled(ParetoLaw(0.5), multiplier=2.0)
        assert law.eta_tail(8.0) == pytest.approx(float(ParetoLaw(0.5).tail(4.0)))
        xi, eta = law.sample_pairs(RngStream(4, 0).generator(), size=1000)
        assert np.allclose(eta, 2.0 * xi)


class TestPathAndRho:
    def test_unit_step_path(self):
        path = generate_path(UNIT_STEP, 10.0, RngStream(5, 0).generator())
        assert np.array_equal(path.s_values[:5], [0.0, 1.0, 2.0, 3.0, 4.0])
        assert path.s_values[-1] > 10.0

    def test_zero_horizon(self):
        path = generate_path(UNIT_STEP, 0.0, RngStream(5, 1).generator())
        assert np.array_equal(path.s_values, [0.0, 1.0])

    def test_rho_counts(self):
        path = generate_path(UNIT_STEP, 10.0, RngStream(5, 2).generator())
        assert renewal_count(path, -0.5) == 0
        assert renewal_count(path, 0.0) == 1
        assert renewal_count(path, 2.5) == 3

    def test_rho_monotone_in_t(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        path = generate_path(law, 100.0, RngStream(6, 0).generator())
        counts = [renewal_count(path, t) for t in np.linspace(0.0, 100.0, 23)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_step_budget_is_checked_before_each_block(self):
        drawn = []

        class CountingLaw(PrwLaw):
            def sample_pairs(self, rng, size):
                drawn.append(size)
                return super().sample_pairs(rng, size)

        law = CountingLaw(xi_law=ConstantLaw(1.0), eta_law=ConstantLaw(0.0))
        with pytest.raises(RuntimeError, match="within 1000 steps"):
            generate_path(law, 1e6, RngStream(6, 2).generator(), max_steps=1000)
        assert sum(drawn) == 1000
        # a walk that crosses on the last allowed step is not an error
        path = generate_path(law, 999.5, RngStream(6, 2).generator(), max_steps=1000)
        assert path.s_values[-1] == 1000.0

    def test_rho_beyond_horizon(self):
        path = generate_path(UNIT_STEP, 5.0, RngStream(6, 1).generator())
        with pytest.raises(ValueError):
            renewal_count(path, 6.0)

    def test_pareto_renewal_count_mean(self):
        # (1-F(t)) * renewal_count(t) has the Mittag-Leffler mean and second moment in
        # the large-t limit; tolerance 3 SE + 10% at t = 1e4
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        t = 1e4
        rng = RngStream(7, 0).generator()
        scaled = np.array(
            [float(law.xi_tail(t)) * renewal_count(generate_path(law, t, rng), t)
             for _ in range(100_000)]
        )
        for order in (1, 2):
            est = mc_accumulate(scaled**order)
            target = mittag_leffler_moment(0.5, order)
            assert abs(est.mean - target) <= 3.0 * est.stderr + 0.10 * target


class TestRenewalFunction:
    def test_unit_step_exact(self):
        rows = renewal_function_estimate(UNIT_STEP, [0.5, 2.5, 7.9], 100, RngStream(8, 0).generator())
        for (t, mean, se) in rows:
            assert mean == math.floor(t) + 1
            assert se == 0.0

    def test_poisson_process_renewal(self):
        law = PrwLaw.independent(ExponentialLaw(1.0), ConstantLaw(0.0))
        rows = renewal_function_estimate(law, [1.0, 10.0], 3000, RngStream(8, 1).generator())
        for (t, mean, se) in rows:
            assert abs(mean - (t + 1.0)) <= 3.0 * se

    def test_monotone_estimates(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        rows = renewal_function_estimate(law, [1.0, 5.0, 25.0], 500, RngStream(8, 2).generator())
        means = [m for _, m, _ in rows]
        assert means == sorted(means)

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            renewal_function_estimate(UNIT_STEP, [1.0], 50, RngStream(8, 3).generator())


class TestFunctionalT:
    def test_zero_perturbation_vanishes(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        path = generate_path(law, 50.0, RngStream(9, 0).generator())
        assert empty_box_functional(path, log_t=10.0) == 0.0

    def test_single_term_hand_check(self):
        eta1 = 2.0
        path = WalkPath(
            s_values=np.array([0.0, 1000.0]), eta_values=np.array([eta1]), horizon=50.0
        )
        t = 5.0
        expected = math.exp(-t * math.exp(-eta1)) - math.exp(-t)
        assert empty_box_functional(path, t=t) == pytest.approx(expected, rel=1e-12)

    def test_horizon_precondition(self):
        path = generate_path(UNIT_STEP, 5.0, RngStream(9, 1).generator())
        with pytest.raises(ValueError):
            empty_box_functional(path, log_t=0.0, margin=40.0)

    def test_truncation_margin_insensitive(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ParetoLaw(0.25))
        rng = RngStream(9, 2).generator()
        for _ in range(20):
            path = generate_path(law, 95.0, rng)
            a = empty_box_functional(path, log_t=15.0, margin=40.0)
            b = empty_box_functional(path, log_t=15.0, margin=80.0)
            assert abs(a - b) <= 1e-12


class TestFunctionalR:
    def test_zero_perturbation(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        path = generate_path(law, 100.0, RngStream(10, 0).generator())
        assert busy_server_count(path, 50.0) == 0

    def test_everlasting_perturbation_equals_rho(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(1e9))
        path = generate_path(law, 100.0, RngStream(10, 1).generator())
        assert busy_server_count(path, 50.0) == renewal_count(path, 50.0)

    def test_bounded_by_rho(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ParetoLaw(0.25))
        rng = RngStream(10, 2).generator()
        for _ in range(50):
            path = generate_path(law, 200.0, rng)
            for t in (1.0, 30.0, 180.0):
                r = busy_server_count(path, t)
                assert 0 <= r <= renewal_count(path, t)


class TestWindowStatistic:
    def test_flat_weight_reduces_to_renewal_count(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        path = generate_path(law, 100.0, RngStream(12, 0).generator())
        t = 80.0
        got = weighted_window_statistic(path, t, lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                   law.xi_tail)
        assert got == pytest.approx(float(law.xi_tail(t)) * renewal_count(path, t), rel=1e-12)

    def test_mean_near_limit(self):
        law = PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0))
        q_fn = lambda x: (1.0 + x) ** -0.25
        rng = RngStream(12, 1).generator()
        t = 1e3
        vals = np.array(
            [weighted_window_statistic(generate_path(law, t, rng), t, q_fn, law.xi_tail)
             for _ in range(20_000)]
        )
        target = z_moment(AlphaBeta(0.5, 0.25), 1)
        assert abs(vals.mean() - target) / target <= 0.15


def _recording(law):
    """The same law, handing out pairs that are also kept in a list."""
    blocks = []

    class Recording(PrwLaw):
        def sample_pairs(self, rng, size):
            pairs = super().sample_pairs(rng, size)
            blocks.append(pairs)
            return pairs

    return Recording(law.xi_law, law.eta_law, law.multiplier), blocks


def _replayed_paths(blocks, n_walks, horizon):
    """The stored paths behind a lockstep run: the rows of each block go to
    the live walks in order, and a walk leaves once it exceeds the horizon.
    Returns the paths and the walks still live after the last block."""
    s = np.zeros(n_walks)
    live = np.arange(n_walks)
    s_parts = [[np.zeros(1)] for _ in range(n_walks)]
    eta_parts = [[] for _ in range(n_walks)]
    for xi, eta in blocks:
        assert xi.shape == eta.shape == (live.size, xi.shape[1])
        for row, r in enumerate(live):
            cum = s[r] + np.cumsum(xi[row])
            s_parts[r].append(cum)
            eta_parts[r].append(eta[row])
            s[r] = cum[-1]
        live = live[s[live] <= horizon]
    paths = []
    for s_part, eta_part in zip(s_parts, eta_parts):
        s_values = np.concatenate(s_part)
        stop = int(np.argmax(s_values > horizon)) if s_values[-1] > horizon else s_values.size
        paths.append(WalkPath(s_values[:stop + 1], np.concatenate(eta_part)[:stop], horizon))
    return paths, live


_REPLAY_LAWS = {
    "independent": PrwLaw.independent(ParetoLaw(0.5), ParetoLaw(0.25)),
    "coupled": PrwLaw.coupled(ParetoLaw(0.5), 2.0),
    # steps of 0.75 put grid values exactly on t = 0, 1.5 and 30
    "const": PrwLaw.independent(ConstantLaw(0.75), ConstantLaw(2.0)),
    # about one draw in 700 overflows to inf
    "logdecay": PrwLaw.independent(LogDecayLaw(), LogDecayLaw()),
}


class TestWalkReplay:
    """The lockstep engine against the stored-path functionals on the very
    pairs the engine drew."""

    @pytest.mark.parametrize("functionals", [FUNCTIONALS, ("window", "busy", "renewals")],
                             ids=["with-empty", "without-empty"])
    @pytest.mark.parametrize("name", sorted(_REPLAY_LAWS))
    def test_functionals_equal_the_stored_path_functionals(self, name, functionals):
        law, blocks = _recording(_REPLAY_LAWS[name])
        t_values = (0.0, 1.5, 2.6, 30.0, 200.0)
        q_fn = lambda x: (1.0 + x) ** -0.25
        n_walks = 1200  # 16-pair blocks at first, longer ones for the last walks
        got = walk_functionals(law, t_values, n_walks, RngStream(13, 0).generator(), functionals, q=q_fn)
        # the empty-box sum needs the walk 40 past its largest log t
        horizon = max(t_values) + (40.0 if "empty" in functionals else 0.0)
        paths, live = _replayed_paths(blocks, n_walks, horizon)
        assert live.size == 0 and len(blocks) > 1
        if name == "logdecay":
            assert any(np.isinf(xi).any() for xi, _ in blocks)
        assert sorted(got) == sorted(functionals)
        stored = {
            "renewals": lambda p, t: renewal_count(p, t),
            "busy": lambda p, t: busy_server_count(p, t),
            "window": lambda p, t: weighted_window_statistic(p, t, q_fn, law.xi_tail),
            "empty": lambda p, t: empty_box_functional(p, log_t=t),
        }
        for stat in functionals:
            assert got[stat].shape == (n_walks, len(t_values))
            for j, t in enumerate(t_values):
                np.testing.assert_allclose(got[stat][:, j], [stored[stat](p, t) for p in paths],
                                           rtol=1e-12, atol=0.0, err_msg=f"{stat} at t = {t}")

    def test_step_budget_counts_walks_and_raises(self, monkeypatch):
        monkeypatch.setattr(walks, "_MAX_WALK_STEPS", 55)
        law, blocks = _recording(_REPLAY_LAWS["independent"])
        with pytest.raises(RuntimeError, match="walk failed to cross") as err:
            walk_functionals(law, (1e4,), 200, RngStream(13, 2).generator())
        _, live = _replayed_paths(blocks, 200, 1e4)
        assert 0 < live.size < 200
        assert f"within 55 steps ({live.size} of 200 walks)" in str(err.value)
        assert sum(xi.shape[1] for xi, _ in blocks) == 55

    @pytest.mark.parametrize("kwargs", [
        {"functionals": ("bogus",)},
        {"t_values": (-1.0,)},
        {"t_values": (float("nan"),)},
        {"t_values": ()},
        {"functionals": ("window",)},
    ])
    def test_invalid_requests_draw_nothing(self, kwargs):
        law, blocks = _recording(_REPLAY_LAWS["independent"])
        args = {"t_values": (10.0,), "functionals": ("renewals",), **kwargs}
        with pytest.raises(ValueError):
            walk_functionals(law, args["t_values"], 10, RngStream(13, 3).generator(), args["functionals"])
        assert blocks == []
