"""Independent oracles for the package's engines, kept beside the tests that
compare against them.  Each is a plain, one-object-at-a-time form of what an
engine computes in bulk:

* ``WalkPath``, ``generate_path`` and the stored-path functionals
  ``renewal_count``, ``busy_server_count``, ``weighted_window_statistic``
  and ``empty_box_functional``: one walk stored through its crossing, the
  oracle of the lockstep engine ``sievesim.walks.walk_functionals``;
* ``OccupancyResult`` and ``allocate_uniform``: one sieve realization by
  interval allocation, the oracle of
  ``sievesim.sieve.sample_occupancy(method="uniform")``;
* ``empty_moments_by_box``: the Poissonized empty-box mean and variance
  summed box by box and pair by pair, the oracle of
  ``sievesim.sieve.empty_moments_given_freqs``;
* ``per_start_dp``: the zero-decrement DP for one start state, the oracle of
  the multi-start ``sievesim.chains.exact_zero_decrement_pmfs``;
* ``per_replicate_direct`` and ``per_replicate_georep``, the direct chain
  sampler and the embedded representation one replicate at a time, each
  round's draws over the live replicates in index order: the oracles of
  ``sievesim.chains.sample_zero_decrements`` and ``sample_geometric_rep``.
  The chain oracles read a spec only through ``spec.row(i)`` and take
  their own ``np.cumsum``, never the spec's ``cum`` or ``stay``;
* ``kanter_sine_form``: Kanter's construction from three sines, the oracle
  of the tan half-angle form in ``sievesim.randkit._kanter_stable``;
* ``levy_pair_form``: the two Levy draws of one (U, E) pair from plain
  ``np.cos`` and ``np.sin``, and ``levy_pair_draws``, a whole call's draws
  from it: the oracles of the alpha = 1/2 route of
  ``sievesim.randkit._standard_stable``;
* ``levy_density``: the Levy density of the subordinator Y, the quadrature
  oracle of ``sievesim.limitlaw.levy_tail_mass`` and ``sample_levy_jump``;
* ``falling_factorial_moments``: the mixed-Poisson diagnostic's moments
  from one row of falling factorials per sample value, the oracle of the
  value-count form ``sievesim.chains.mixed_poisson_counts_diagnostic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sievesim.chains import DEFICIT_CAP, Pmf
from sievesim.randkit import sample_uniform01
from sievesim.sieve import FrequencySeq, WLaw, _check_balls
from sievesim.walks import _MARGIN, _MAX_WALK_STEPS, PrwLaw, _double_exp


# ----------------------------------------------------------------------
# perturbed walks


@dataclass
class WalkPath:
    """Walk realization stored through its first crossing of the horizon.

    ``s_values`` holds S_0 = 0, ..., S_K with S_K > horizon; ``eta_values``
    holds eta_1, ..., eta_K, so T_k = s_values[k-1] + eta_values[k-1].
    """

    s_values: np.ndarray
    eta_values: np.ndarray
    horizon: float


def generate_path(law: PrwLaw, horizon: float, rng, max_steps: int = _MAX_WALK_STEPS) -> WalkPath:
    """Draw pairs until the walk first exceeds ``horizon``.

    At most ``max_steps`` pairs are drawn: the budget is checked before each
    block, so a walk that cannot cross raises before it stores more.
    """
    if not (horizon >= 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be finite nonnegative, got {horizon}")
    s_chunks = [np.zeros(1)]
    eta_chunks = []
    total = 0.0
    drawn = 0
    block = 64
    while True:
        if drawn >= max_steps:
            raise RuntimeError(
                f"walk failed to cross the horizon {horizon:g} within {max_steps} steps"
            )
        block = min(block, max_steps - drawn)
        xi, eta = law.sample_pairs(rng, size=block)
        cum = total + np.cumsum(xi)
        crossed = cum > horizon
        if crossed.any():
            stop = int(np.argmax(crossed)) + 1
            s_chunks.append(cum[:stop])
            eta_chunks.append(eta[:stop])
            break
        s_chunks.append(cum)
        eta_chunks.append(eta)
        total = float(cum[-1])
        drawn += block
        block = min(2 * block, 65536)
    return WalkPath(
        s_values=np.concatenate(s_chunks),
        eta_values=np.concatenate(eta_chunks),
        horizon=horizon,
    )


def renewal_count(path: WalkPath, t: float) -> int:
    """#{k >= 0 : S_k <= t}; equals the first index whose walk value exceeds t."""
    if t > path.horizon:
        raise ValueError(f"t = {t} exceeds the stored horizon {path.horizon}")
    return int(np.searchsorted(path.s_values, t, side="right"))


def _resolve_log_t(t, log_t):
    if (t is None) == (log_t is None):
        raise ValueError("provide exactly one of t or log_t")
    if t is not None:
        if not t > 0.0:
            raise ValueError(f"t must be positive, got {t}")
        return math.log(t)
    return float(log_t)


def empty_box_functional(path: WalkPath, t: float | None = None, *,
                         log_t: float | None = None, margin: float = _MARGIN) -> float:
    """Empty-box functional: sum over k >= 1 of
    exp(-t*e^(-T_k)) - exp(-t*e^(-S_{k-1})).

    Terms with S_{k-1} > log t + margin are dropped; each is below
    exp(-margin), under float noise at the default margin.  The stored
    horizon must reach log t + margin.
    """
    x = _resolve_log_t(t, log_t)
    if path.horizon < x + margin:
        raise ValueError(
            f"path horizon {path.horizon} is short of log t + margin = {x + margin}"
        )
    s_prev = path.s_values[:-1]
    keep = s_prev <= x + margin
    s_prev = s_prev[keep]
    t_k = s_prev + path.eta_values[keep]
    return float((_double_exp(x - t_k) - _double_exp(x - s_prev)).sum())


def busy_server_count(path: WalkPath, t: float) -> int:
    """Busy-server count: #{k >= 0 : S_k <= t < S_k + eta_{k+1}}."""
    if t > path.horizon:
        raise ValueError(f"t = {t} exceeds the stored horizon {path.horizon}")
    s_prev = path.s_values[:-1]
    return int(np.count_nonzero((s_prev <= t) & (t < s_prev + path.eta_values)))


def weighted_window_statistic(path: WalkPath, t: float, Q, F_bar) -> float:
    """Weighted renewal-window statistic:
    (F_bar(t)/Q(t)) * sum over {k : S_k <= t} of Q(t - S_k),
    for nonincreasing Q with Q(0) finite and F_bar the exact tail of xi."""
    if t > path.horizon:
        raise ValueError(f"t = {t} exceeds the stored horizon {path.horizon}")
    s = path.s_values[path.s_values <= t]
    q_vals = np.asarray(Q(t - s), dtype=float)
    return float(F_bar(t) / Q(t) * q_vals.sum())


# ----------------------------------------------------------------------
# sieve occupancy


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy statistics of one sieve realization.

    ``empty_in_range`` counts the empty boxes with index below the last
    occupied one, so it always equals last_occupied - occupied.
    """

    balls: int
    occupied: int
    last_occupied: int
    empty_in_range: int

    def __post_init__(self):
        assert self.empty_in_range == self.last_occupied - self.occupied
        if self.balls >= 1:
            assert 1 <= self.occupied <= min(self.balls, self.last_occupied)
        else:
            assert self.occupied == self.last_occupied == 0


def allocate_uniform(wlaw: WLaw, n, rng, freqs: FrequencySeq | None = None) -> OccupancyResult:
    """Throw n uniform balls at the stick-breaking intervals (Q_k, Q_{k-1})."""
    n = _check_balls(n)
    if n == 0:
        return OccupancyResult(balls=0, occupied=0, last_occupied=0, empty_in_range=0)
    u = rng.random(n)
    if freqs is None:
        freqs = FrequencySeq(wlaw, rng)
    freqs.extend_below(float(u.min()))
    q_inner = freqs.q[1:]  # Q_1, Q_2, ... descending
    # ball in box k  iff  Q_k < u <= Q_{k-1}  iff  k-1 residuals exceed u
    ascending = q_inner[::-1]
    boxes = 1 + (q_inner.size - np.searchsorted(ascending, u, side="left"))
    occupied_idx = np.unique(boxes)
    k = int(occupied_idx.size)
    m = int(occupied_idx[-1])
    return OccupancyResult(balls=n, occupied=k, last_occupied=m, empty_in_range=m - k)


def empty_moments_by_box(q, t: float):
    """Mean and variance of the empty-box count given the residuals ``q``
    under Poisson(t) balls, from the indicators I_k of box k being empty
    below the last occupied box.  Box counts are independent Poisson(t*P_k),
    so E I_k = exp(-t*P_k) - exp(-t*Q_{k-1}) and, for i < j,
    E I_i I_j = exp(-t*(P_i + P_j)) * (1 - exp(-t*Q_j)).
    """
    q = [float(x) for x in q]
    p = [q[k - 1] - q[k] for k in range(1, len(q))]
    mean_k = [math.exp(-t * p[k]) - math.exp(-t * q[k]) for k in range(len(p))]
    terms = [m - m * m for m in mean_k]
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            joint = math.exp(-t * (p[i] + p[j])) * -math.expm1(-t * q[j + 1])
            terms.append(2.0 * (joint - mean_k[i] * mean_k[j]))
    return math.fsum(mean_k), math.fsum(terms)


def per_start_dp(spec, n):
    """The zero-decrement DP for one start state, run only up to that
    state: the reference for the multi-start DP."""
    if n == spec.floor:
        return Pmf(masses=np.array([1.0]))
    width = n - spec.floor + 1
    strict = [spec.row(i)[:-1] for i in range(spec.floor + 1, n + 1)]
    diag = np.array([spec.row(i)[-1] for i in range(spec.floor + 1, n + 1)])
    columns = []
    prev = np.zeros(width)
    cum_n = 0.0
    while True:
        col = np.empty(width)
        col[0] = 0.0 if columns else 1.0
        for idx in range(1, width):
            col[idx] = diag[idx - 1] * prev[idx] + float(strict[idx - 1] @ col[:idx])
        columns.append(col[-1])
        cum_n += col[-1]
        if 1.0 - cum_n <= DEFICIT_CAP:
            return Pmf(masses=np.array(columns), tail_deficit=max(0.0, 1.0 - cum_n))
        prev = col


def per_replicate_direct(spec, n, size, rng):
    """Direct simulation one replicate at a time: each round draws one
    uniform array u over the live replicates in index order, and each
    replicate's next position is ``np.searchsorted`` of u on its full row's
    cumsum.  The reference for the table-and-bisection sampler."""
    states = np.full(size, n, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    active = np.flatnonzero(states > spec.floor)
    while active.size:
        for r, x in zip(active, rng.random(active.size)):
            cum = np.cumsum(spec.row(int(states[r])))
            pos = min(np.searchsorted(cum, x, side="right"), cum.size - 1)
            counts[r] += spec.floor + pos == states[r]
            states[r] = spec.floor + pos
        active = active[states[active] > spec.floor]
    return counts


def per_replicate_georep(spec, n, size, rng):
    """The embedded representation one replicate at a time: each round
    draws the live replicates' stay counts as one geometric array and then
    one uniform array u, in index order, and each replicate's next position
    is ``np.searchsorted`` of u (1 - s_{i,i}) on its row's strict cumsum.
    The reference for the table-and-bisection sampler."""
    states = np.full(size, n, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    active = np.flatnonzero(states > spec.floor)
    while active.size:
        leave = 1.0 - np.array([spec.row(int(s))[-1] for s in states[active]])
        counts[active] += rng.geometric(leave) - 1
        for r, x in zip(active, rng.random(active.size) * leave):
            cum = np.cumsum(spec.row(int(states[r]))[:-1])
            states[r] = spec.floor + min(np.searchsorted(cum, x, side="right"), cum.size - 1)
        active = active[states[active] > spec.floor]
    return counts


# ----------------------------------------------------------------------
# stable laws and the subordinator Y


def kanter_sine_form(alpha, u, e):
    """Kanter's S = (A(u)/E)^((1-alpha)/alpha) with A(u) from three ``np.sin``
    calls in log space: the reference for the tan half-angle evaluation."""
    pu = np.pi * u
    frac = alpha / (1.0 - alpha)
    log_a = (
        frac * np.log(np.sin(alpha * pu))
        + np.log(np.sin((1.0 - alpha) * pu))
        - (1.0 + frac) * np.log(np.sin(pu))
    )
    return np.exp((log_a - np.log(e)) * (1.0 / frac))


def levy_pair_form(u, e):
    """Kanter's formula at alpha = 1/2, 1/(4E cos^2(pi U/2)), at U and at
    1 - U: the two Levy draws of one (U, E) pair, as arrays of u's shape."""
    theta = 0.5 * np.pi * u
    return 0.25 / (e * np.cos(theta) ** 2), 0.25 / (e * np.sin(theta) ** 2)


def levy_pair_draws(rng, size):
    """The alpha = 1/2 draws of a size-``size`` call from ``levy_pair_form``:
    ceil(k/2) uniforms, then as many exponentials, both halves end to end,
    trimmed to k."""
    k = int(np.prod(size))
    half = k - k // 2
    u = sample_uniform01(rng, half)
    s1, s2 = levy_pair_form(u, rng.standard_exponential(half))
    return np.concatenate([s1, s2])[:k].reshape(size)


def levy_density(alpha, t):
    """Levy density of Y, exp(-t/a) * (1-exp(-t/a))^(-(a+1)) on (0, inf):
    the quadrature oracle for the closed-form tail and the jump sampler."""
    return math.exp(-t / alpha) * (-math.expm1(-t / alpha)) ** -(alpha + 1.0)


def falling_factorial_moments(samples):
    """The mixed-Poisson diagnostic's moments of an integer sample, from the
    (size x 4) matrix of its falling factorials of orders 1 to 4: their
    means phi, their covariance over the sample size (the covariance of phi),
    the sample mean and the sample variance."""
    samples = np.asarray(samples, dtype=np.int64)
    values = samples.astype(float)
    ff = np.stack([np.prod([values - j for j in range(r)], axis=0) for r in range(1, 5)],
                  axis=1)
    return (ff.mean(axis=0), np.cov(ff, rowvar=False) / samples.size,
            float(samples.mean()), float(samples.var(ddof=1)))
