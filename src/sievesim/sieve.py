"""The Bernoulli sieve: stick-breaking random frequencies, ball allocation,
and the occupancy statistics (occupied boxes, occupancy range, empty boxes).

Frequencies are P_k = W_1*...*W_{k-1}*(1-W_k) for i.i.d. W in (0,1), held as
the residual sequence Q_0 = 1 > Q_1 > Q_2 > ... with Q_k = W_1*...*W_k and
P_k = Q_{k-1} - Q_k.  Two exact allocation representations sample the same
occupancy law, both behind ``sample_occupancy``:

* ``method="multinomial"``: sequential binomial thinning with conditional
  probability P_k / (1 - P_1 - ... - P_{k-1}) = 1 - W_k per box, all
  replicates in lockstep; it costs O(depth) per replicate regardless of the
  ball count, which is what makes 10^6-ball experiments cheap;
* ``method="uniform"``: balls as uniforms on [0,1] and boxes the intervals
  (Q_k, Q_{k-1}), all replicates in lockstep over the residual levels; it is
  the independent oracle for the first, and a one-replicate allocator in the
  tests (``tests/oracles.py``) is its own oracle.

Poissonization (Poisson ball counts) decouples boxes conditionally on the
frequencies, giving closed conditional mean/variance formulas for the
empty-box count that are implemented here and checked against replay
simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randkit import sample_uniform01
from .stats import ks_two_sample, mc_accumulate
from .walks import LogDecayLaw, ParetoLaw

__all__ = [
    "WLaw",
    "UniformW",
    "BetaW",
    "ConstantW",
    "LogParetoMixtureW",
    "FrequencySeq",
    "OccupancyBatch",
    "sample_occupancy",
    "mean_empty_given_freqs",
    "var_empty_given_freqs",
    "normalization_ratio",
    "limit_trend_experiment",
    "TrendPoint",
]


class WLaw:
    """Law of the stick-breaking factor W, with exact two-sided tail
    evaluators P{W <= x} and P{1-W <= x}."""

    symmetric = False  # True when W and 1-W share a law

    def sample(self, rng, size):
        raise NotImplementedError

    def cdf(self, x):
        """P{W <= x}."""
        raise NotImplementedError

    def comp_cdf(self, x):
        """P{1-W <= x}."""
        raise NotImplementedError

    def mixed_moment(self, j: int, m: int) -> float:
        """E W^j (1-W)^m; only families with closed forms implement it, and
        with it ``moment_ratios(i)``, the ratios
        E W^j (1-W)^(i-j) / E W^(j-1) (1-W)^(i-j+1) for j = 1..i."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form mixed moments")


class UniformW(WLaw):
    symmetric = True

    def sample(self, rng, size):
        return sample_uniform01(rng, size=size)

    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def comp_cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def mixed_moment(self, j, m):
        lg = math.lgamma
        return math.exp(lg(j + 1.0) + lg(m + 1.0) - lg(j + m + 2.0))

    def moment_ratios(self, i):
        j = np.arange(1, i + 1)
        return j / (i - j + 1.0)

    def __repr__(self):
        return "UniformW()"


_MAX_REDRAWS = 1000  # rounds of Beta redraws of endpoint values


class BetaW(WLaw):
    """W ~ Beta(a, b); mixed moments are beta-function ratios."""

    def __init__(self, a: float, b: float):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"beta parameters must be positive and finite, got ({a}, {b})")
        self.a = float(a)
        self.b = float(b)
        self.symmetric = a == b

    def sample(self, rng, size):
        w = rng.beta(self.a, self.b, size=size)
        # endpoint draws have probability zero; redraw any float artifacts,
        # a bounded number of times: at tiny parameters they are all numpy returns
        bad = ~((w > 0.0) & (w < 1.0))
        for _ in range(_MAX_REDRAWS):
            if not bad.any():
                return w
            w[bad] = rng.beta(self.a, self.b, size=int(bad.sum()))
            bad = ~((w > 0.0) & (w < 1.0))
        raise RuntimeError(f"{self!r} draws still round to 0 or 1 after {_MAX_REDRAWS} redraws")

    def cdf(self, x):
        from scipy.special import betainc

        return betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    def comp_cdf(self, x):
        from scipy.special import betainc

        return betainc(self.b, self.a, np.clip(x, 0.0, 1.0))

    def mixed_moment(self, j, m):
        lg = math.lgamma
        return math.exp(
            lg(self.a + j) + lg(self.b + m) - lg(self.a + self.b + j + m)
            - (lg(self.a) + lg(self.b) - lg(self.a + self.b))
        )

    def moment_ratios(self, i):
        j = np.arange(1, i + 1)
        return (self.a + j - 1.0) / (self.b + (i - j))

    def __repr__(self):
        return f"BetaW({self.a}, {self.b})"


class ConstantW(WLaw):
    """Degenerate W = w; P_k = w^(k-1) * (1-w) exactly."""

    def __init__(self, w: float):
        if not 0.0 < w < 1.0:
            raise ValueError(f"constant W must lie strictly in (0,1), got {w}")
        self.w = float(w)
        self.symmetric = w == 0.5

    def sample(self, rng, size):
        return np.full(size, self.w)

    def cdf(self, x):
        return np.where(x >= self.w, 1.0, 0.0)

    def comp_cdf(self, x):
        return np.where(x >= 1.0 - self.w, 1.0, 0.0)

    def mixed_moment(self, j, m):
        return self.w**j * (1.0 - self.w) ** m

    def moment_ratios(self, i):
        return np.full(i, self.w / (1.0 - self.w))

    def __repr__(self):
        return f"ConstantW({self.w})"


class LogParetoMixtureW(WLaw):
    """Mixture with exact logarithmic tails on both sides.

    With probability p, W = exp(-V) for V Pareto(alpha) on [1, inf); else
    W = 1 - exp(-V') with V' Pareto(beta) (or the slowly varying log-decay
    law when beta = 0).  For log n >= 1 this gives exactly

        P{W <= 1/n} = p * (log n)^(-alpha),
        P{1-W <= 1/n} = (1-p) * (log n)^(-beta),

    so the normalization ratio is available in closed form.  The beta = 0
    variant converges extremely slowly and is excluded from default
    verification runs.
    """

    def __init__(self, alpha: float, beta: float, p: float = 0.5):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {alpha}")
        if not 0.0 <= beta <= alpha:
            raise ValueError(f"need 0 <= beta <= alpha, got beta = {beta}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"mixing weight must lie in (0,1), got {p}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.p = float(p)
        self._v_law = ParetoLaw(alpha)
        self._vprime_law = ParetoLaw(beta) if beta > 0.0 else LogDecayLaw()

    def sample(self, rng, size):
        n = int(np.prod(size))
        pick = rng.random(n) < self.p
        out = np.empty(n)
        n1 = int(pick.sum())
        if n1:
            out[pick] = np.exp(-self._v_law.sample(rng, size=n1))
        if n - n1:
            out[~pick] = -np.expm1(-self._vprime_law.sample(rng, size=n - n1))
        out = np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        return out.reshape(size)

    def cdf(self, x):
        x = np.clip(x, 1e-300, 1.0 - 1e-16)
        low = self._v_law.tail(-np.log(x))
        high = 1.0 - self._vprime_law.tail(-np.log1p(-x))
        return self.p * low + (1.0 - self.p) * high

    def comp_cdf(self, x):
        x = np.clip(x, 1e-300, 1.0 - 1e-16)
        low = self._vprime_law.tail(-np.log(x))
        high = 1.0 - self._v_law.tail(-np.log1p(-x))
        return (1.0 - self.p) * low + self.p * high

    def __repr__(self):
        return f"LogParetoMixtureW({self.alpha}, {self.beta}, p={self.p})"


_MAX_FREQ_DEPTH = 1_000_000
_FREQ_CHUNK = 32  # factors drawn per extension step


class FrequencySeq:
    """Residuals Q_0 = 1 > Q_1 > ... of the stick-breaking process with
    factors W drawn from ``wlaw``; the sequence is drawn from ``rng`` lazily,
    as deeper residuals are asked for.
    """

    def __init__(self, wlaw: WLaw, rng):
        self._q = [1.0]
        self._wlaw = wlaw
        self._rng = rng

    @property
    def q(self) -> np.ndarray:
        return np.asarray(self._q)

    def extend_below(self, threshold: float) -> None:
        """Grow the sequence until the last residual drops below ``threshold``."""
        while self._q[-1] >= threshold:
            tail = self._q[-1] * np.cumprod(self._wlaw.sample(self._rng, size=_FREQ_CHUNK))
            self._q.extend(tail.tolist())
            if len(self._q) > _MAX_FREQ_DEPTH:
                raise RuntimeError("frequency sequence failed to shrink within the depth budget")


@dataclass
class OccupancyBatch:
    """Vectorized occupancy statistics over replicates."""

    occupied: np.ndarray
    last_occupied: np.ndarray
    empty_in_range: np.ndarray
    truncated: int = 0


_MAX_BALLS = np.iinfo(np.int64).max  # ball counts are held as int64


def _check_balls(n) -> int:
    if not (isinstance(n, (int, np.integer)) and 0 <= n <= _MAX_BALLS):
        raise ValueError(f"ball count must be an integer in [0, 2**63 - 1], got {n!r}")
    return int(n)


_MAX_ALLOC_DEPTH = 100_000


def _interval_occupancy(wlaw: WLaw, balls: np.ndarray, rng, freqs: FrequencySeq | None):
    """Interval allocation for every replicate at once (``balls[r]`` uniform
    balls in replicate r): box k is occupied when more balls exceed Q_k than
    Q_{k-1}, and the last one is the first k with Q_k below every ball.
    Residuals are drawn level by level, only for the replicates not yet below
    their balls.
    """
    width = int(balls.max(initial=0))
    u = rng.random((balls.size, width))
    short = np.arange(width) >= balls[:, None]  # slots past a replicate's balls
    u[short] = 1.0
    smallest = u.min(axis=1, initial=1.0)
    u[short] = 0.0  # below every residual, so never counted
    occupied = np.zeros(balls.size, dtype=np.int64)
    last = np.zeros(balls.size, dtype=np.int64)
    active = np.flatnonzero(balls > 0)
    if freqs is not None and active.size:
        freqs.extend_below(float(smallest.min()))
    u, q, above = u[active], np.ones(active.size), np.zeros(active.size, dtype=np.int64)
    for k in range(1, _MAX_FREQ_DEPTH + 1):
        if not active.size:
            return OccupancyBatch(occupied, last, last - occupied)
        if freqs is None:
            q = q * wlaw.sample(rng, size=active.size)
        else:
            q = np.full(active.size, freqs.q[k])
        count = (u > q[:, None]).sum(axis=1)  # balls above Q_k
        occupied[active] += count > above
        done = q < smallest[active]
        last[active[done]] = k
        active, u, q, above = active[~done], u[~done], q[~done], count[~done]
    raise RuntimeError("frequency sequence failed to shrink within the depth budget")


def sample_occupancy(
    wlaw: WLaw, n, reps: int, rng, method: str = "multinomial",
    freqs: FrequencySeq | None = None, poissonized: bool = False,
) -> OccupancyBatch:
    """Replicated occupancy statistics.

    ``multinomial`` runs all replicates in lockstep (one binomial row per box
    index), so the cost scales with the frequency depth, not the ball count.
    ``uniform`` runs the interval representation in lockstep: every ball is
    drawn up front, so its cost grows with the ball count.
    ``truncated`` counts the lockstep replicates that dumped their remaining
    balls into one box because their residual degenerated in floats.
    """
    n = _check_balls(n)
    if method not in ("uniform", "multinomial"):
        raise ValueError(f"unknown allocation method {method!r}")
    balls = rng.poisson(n, size=reps).astype(np.int64) if poissonized else np.full(reps, n, dtype=np.int64)
    if method == "uniform":
        return _interval_occupancy(wlaw, balls, rng, freqs)

    remaining = balls.copy()
    occupied = np.zeros(reps, dtype=np.int64)
    last = np.zeros(reps, dtype=np.int64)
    truncated = 0
    active = np.flatnonzero(remaining > 0)
    k = 0
    q_fixed = freqs.q if freqs is not None else None
    while active.size:
        k += 1
        if q_fixed is not None:
            if k >= q_fixed.size:
                freqs.extend_below(q_fixed[-1] * 0.5**32)
                q_fixed = freqs.q
            hit_prob = np.full(active.size, 1.0 - q_fixed[k] / q_fixed[k - 1])
        else:
            hit_prob = 1.0 - wlaw.sample(rng, size=active.size)
        c = remaining[active]
        # a replicate whose residual degenerated in floats, or that ran past
        # the depth budget, dumps its remainder in this box; the rest thin on
        keep = ~((hit_prob <= 0.0) | (k > _MAX_ALLOC_DEPTH))
        truncated += c.size - int(keep.sum())
        c[keep] = rng.binomial(c[keep], hit_prob[keep])
        hit = c > 0
        occupied[active] += hit
        last[active] = np.where(hit, k, last[active])
        remaining[active] -= c
        active = active[remaining[active] > 0]
    return OccupancyBatch(occupied, last, last - occupied, truncated=truncated)


def mean_empty_given_freqs(freqs: FrequencySeq, t: float) -> float:
    """Conditional mean of the empty-box count under Poisson(t) balls:
    the sum of exp(-t*P_k) - exp(-t*(1-P_1-...-P_{k-1})) over the boxes.

    The sequence must reach residual < exp(-40)/t; the dropped tail is then
    below exp(-40) in total.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    freqs.extend_below(math.exp(-40.0) / t)
    q = freqs.q
    q_prev = q[:-1]
    p = q_prev - q[1:]
    return float((np.exp(-t * p) - np.exp(-t * q_prev)).sum())


def var_empty_given_freqs(freqs: FrequencySeq, t: float) -> float:
    """Conditional variance of the empty-box count under Poisson(t) balls,
    via the exact three-sum decomposition
    y1 + y2 + 2*y3 (box-variance, stay-empty cross term, i<j covariances).

    Truncated where the residual terms drop below 1e-14.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    freqs.extend_below(min(1e-14 / t, math.exp(-40.0) / t))
    q = freqs.q
    q_prev = q[:-1]
    p = q_prev - q[1:]
    e_p = np.exp(-t * p)
    e_q = np.exp(-t * q_prev)
    y1 = (e_p - e_p**2).sum()
    y2 = (e_q * (2.0 * e_p - e_q - 1.0)).sum()
    a = e_p - e_q
    suffix = np.concatenate([np.cumsum(a[::-1])[::-1][1:], [0.0]])
    y3 = (e_q * suffix).sum()
    return max(0.0, float(y1 + y2 + 2.0 * y3))


def normalization_ratio(wlaw: WLaw, n) -> float:
    """Exact ratio P{W <= 1/n} / P{1-W <= 1/n} from the law's tail evaluators."""
    if not n >= 3:
        raise ValueError(f"need n >= 3, got {n}")
    num = float(wlaw.cdf(1.0 / n))
    den = float(wlaw.comp_cdf(1.0 / n))
    if den == 0.0:
        raise ValueError("P{1-W <= 1/n} vanishes; the law violates the tail conditions")
    return num / den


@dataclass(frozen=True)
class TrendPoint:
    balls: int
    mean_normalized: float
    stderr: float
    ks_vs_limit: float


def limit_trend_experiment(wlaw: WLaw, n_grid, replicates: int, rng,
                           z_draws) -> list[TrendPoint]:
    """Normalized empty-box trend against the limit law.

    For each ball count n: the empirical mean/SE of the ratio-normalized
    empty-box count and the two-sample KS distance to the limit-law draws
    ``z_draws``.
    """
    rows = []
    for n in n_grid:
        n = _check_balls(n)
        ratio = normalization_ratio(wlaw, n)
        batch = sample_occupancy(wlaw, n, replicates, rng, method="multinomial")
        normalized = ratio * batch.empty_in_range
        est = mc_accumulate(normalized)
        rows.append(
            TrendPoint(
                balls=n,
                mean_normalized=est.mean,
                stderr=est.stderr,
                ks_vs_limit=ks_two_sample(normalized, z_draws),
            )
        )
    return rows
