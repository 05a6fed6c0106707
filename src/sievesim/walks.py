"""Perturbed random walks and their functionals.

A perturbed random walk observes a zero-delayed nonnegative random walk
S_0 = 0, S_k = xi_1 + ... + xi_k through T_k = S_{k-1} + eta_k, where the
pairs (xi_k, eta_k) are i.i.d. copies of (xi, eta) with xi, eta >= 0 and
P{xi = 0} < 1.  No independence between xi and eta is assumed; a coupled
pair (eta = multiplier * xi) is available alongside the independent default.

The functionals below (renewal count, empty-box functional, busy-server
count, and the weighted-window statistic) all converge, under regularly
varying tails with indices 0 <= beta <= alpha < 1, to the same limit law Z
handled by :mod:`sievesim.limitlaw`.  ``walk_functionals`` computes them
for many walks at once, in lockstep and without storing a path; its oracle,
stored paths and their functionals, lives in the tests (``tests/oracles.py``).

Large arguments: the empty-box functional takes the time argument on log
scale (``walk_functionals`` reads each t as log t for ``empty``), since the
interesting regime has t = e^x with x in the thousands, far beyond float
range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randkit import sample_uniform01
from .stats import mc_accumulate

__all__ = [
    "ParetoLaw",
    "ExponentialLaw",
    "ConstantLaw",
    "LogDecayLaw",
    "PrwLaw",
    "renewal_function_estimate",
    "walk_functionals",
]

_INNER_EXP_CAP = 50.0  # exp(-exp(50)) underflows to exactly 0.0 long before this


def _double_exp(w):
    """exp(-exp(w)) without overflow warnings for large w."""
    return np.exp(-np.exp(np.minimum(w, _INNER_EXP_CAP)))


class MarginalLaw:
    """Nonnegative marginal with an exact tail evaluator: subclasses provide
    ``sample`` and ``tail``."""

    def sample(self, rng, size):
        raise NotImplementedError

    def tail(self, x):
        raise NotImplementedError


class ParetoLaw(MarginalLaw):
    """P{X > x} = x^(-index) for x >= 1 (support starts at 1)."""

    def __init__(self, index: float):
        if not index > 0.0:
            raise ValueError(f"Pareto index must be positive, got {index}")
        self.index = index

    def sample(self, rng, size):
        u = sample_uniform01(rng, size=size)
        return u ** (-1.0 / self.index)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        return np.power(x, -self.index, out=out, where=x > 1.0)


class ExponentialLaw(MarginalLaw):
    def __init__(self, mean: float = 1.0):
        if not mean > 0.0:
            raise ValueError(f"mean must be positive, got {mean}")
        self.mean = mean

    def sample(self, rng, size):
        return rng.standard_exponential(size=size) * self.mean

    def tail(self, x):
        return np.exp(-np.maximum(x, 0.0) / self.mean)


class ConstantLaw(MarginalLaw):
    def __init__(self, value: float):
        if not value >= 0.0:
            raise ValueError(f"constant must be nonnegative, got {value}")
        self.value = value

    def sample(self, rng, size):
        return np.full(size, self.value, dtype=float)

    def tail(self, x):
        return np.where(x < self.value, 1.0, 0.0)


class LogDecayLaw(MarginalLaw):
    """P{X > x} = 1/(1 + log x) for x >= 1: a slowly varying tail (index 0).

    Convergence of anything built on this law is extremely slow; it exists
    to exercise the index-0 corner, not for default verification runs.
    Draws can overflow to inf (the law is that heavy); the functionals
    tolerate inf values.
    """

    def sample(self, rng, size):
        u = sample_uniform01(rng, size=size)
        with np.errstate(over="ignore"):
            return np.exp(1.0 / u - 1.0)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 1.0, 1.0 / (1.0 + np.log(np.maximum(x, 1.0))), 1.0)


@dataclass(frozen=True)
class PrwLaw:
    """Joint law of (xi, eta); independent components unless a coupling
    multiplier is set, in which case eta = multiplier * xi."""

    xi_law: MarginalLaw
    eta_law: MarginalLaw | None = None
    multiplier: float | None = None

    def __post_init__(self):
        if (self.eta_law is None) == (self.multiplier is None):
            raise ValueError("provide exactly one of eta_law (independent) or multiplier (coupled)")
        if self.multiplier is not None and not self.multiplier > 0.0:
            raise ValueError(f"coupling multiplier must be positive, got {self.multiplier}")
        if not float(self.xi_law.tail(0.0)) > 0.0:
            raise ValueError("xi must satisfy P{xi = 0} < 1")

    @staticmethod
    def independent(xi_law: MarginalLaw, eta_law: MarginalLaw) -> "PrwLaw":
        return PrwLaw(xi_law=xi_law, eta_law=eta_law)

    @staticmethod
    def coupled(xi_law: MarginalLaw, multiplier: float) -> "PrwLaw":
        return PrwLaw(xi_law=xi_law, multiplier=multiplier)

    def sample_pairs(self, rng, size):
        xi = self.xi_law.sample(rng, size=size)
        if self.multiplier is not None:
            return xi, self.multiplier * xi
        return xi, self.eta_law.sample(rng, size=size)

    def xi_tail(self, x):
        return self.xi_law.tail(x)

    def eta_tail(self, x):
        if self.multiplier is not None:
            return self.xi_law.tail(np.divide(x, self.multiplier))
        return self.eta_law.tail(x)


# Steps per walk: about 5000 times the longest walk to t = 1e4 seen in
# criteria 11 and 12 (397 steps).
_MAX_WALK_STEPS = 1 << 21


FUNCTIONALS = ("renewals", "busy", "window", "empty")
_BLOCK = 16  # pairs per walk and block; fewer live walks take longer blocks
_BLOCK_PAIRS = 1 << 14
_EMPTY_CUT = 8.0  # exp(-exp(w)) is exactly 0.0 in float64 for w >= 6.62
_MARGIN = 40.0  # empty-box terms with S_{k-1} > log t + _MARGIN are below e^-40


def _row_sums(mask, terms):
    """Per-row sums of ``terms``, the values at the True cells of ``mask``."""
    return np.bincount(np.flatnonzero(mask) // mask.shape[1], terms, mask.shape[0])


def walk_functionals(law: PrwLaw, t_values, replicates: int, rng, functionals=("renewals",),
                     q=None) -> dict:
    """``{name: (replicates, len(t_values)) array}`` of these functionals of
    independent walks at each t, without storing a path:

    * ``renewals``: #{k >= 0 : S_k <= t};
    * ``busy``: #{k >= 0 : S_k <= t < S_k + eta_{k+1}};
    * ``window``: (P{xi > t}/q(t)) * sum over {k : S_k <= t} of q(t - S_k),
      for a nonincreasing weight ``q`` with q(0) finite;
    * ``empty``: the empty-box functional at log time t, the sum over k >= 1
      of exp(-exp(t - T_k)) - exp(-exp(t - S_{k-1})); the terms with
      S_{k-1} > t + 40 are dropped, each below exp(-40).

    Live walks advance in lockstep through shared (m, block) blocks of
    pairs, and leave once past the horizon: max(t), plus the empty-box
    margin when ``empty`` is asked for.  The step budget counts per walk;
    walks that exhaust it are counted and the run raises RuntimeError.
    """
    unknown = [name for name in functionals if name not in FUNCTIONALS]
    if unknown:
        raise ValueError(f"unknown statistic {unknown[0]!r}")
    t_values = np.asarray(t_values, dtype=float).ravel()
    if not (t_values.size and np.all(np.isfinite(t_values) & (t_values >= 0.0))):
        raise ValueError(f"t must be finite nonnegative, got {t_values.tolist()}")
    if "window" in functionals and q is None:
        raise ValueError("the window statistic needs a weight function q")
    horizon = float(t_values.max()) + (_MARGIN if "empty" in functionals else 0.0)
    sums = {name: np.zeros((replicates, t_values.size)) for name in functionals}
    s = np.zeros(replicates)  # S_{k-1}, the walk before its next step
    active = np.arange(replicates)
    drawn = 0
    while active.size:
        if drawn >= _MAX_WALK_STEPS:
            raise RuntimeError(f"walk failed to cross the horizon {horizon:g} within "
                               f"{_MAX_WALK_STEPS} steps ({active.size} of {replicates} walks)")
        size = min(max(_BLOCK, _BLOCK_PAIRS // active.size), _MAX_WALK_STEPS - drawn)
        xi, eta = law.sample_pairs(rng, size=(active.size, size))
        cum = s[active, None] + np.cumsum(xi, axis=1)
        # the pairs (S_{k-1}, eta_k); those past the crossing have S_{k-1} > horizon
        prev = np.concatenate([s[active, None], cum[:, :-1]], axis=1)
        t_k = prev + eta
        for j, t in enumerate(t_values):
            before = prev <= t
            if "renewals" in sums:
                sums["renewals"][active, j] += before.sum(axis=1)
            if "busy" in sums:
                sums["busy"][active, j] += (before & (t < t_k)).sum(axis=1)
            if "window" in sums:
                sums["window"][active, j] += _row_sums(before, q(t - prev[before]))
            if "empty" in sums:
                # the terms left out are 0.0 - 0.0 exactly
                near = (prev <= t + _MARGIN) & (t_k >= t - _EMPTY_CUT)
                terms = _double_exp(t - t_k[near]) - _double_exp(t - prev[near])
                sums["empty"][active, j] += _row_sums(near, terms)
        s[active] = cum[:, -1]
        active = active[cum[:, -1] <= horizon]
        drawn += size
    if "window" in sums:
        sums["window"] *= law.xi_tail(t_values) / q(t_values)
    return sums


def renewal_function_estimate(law: PrwLaw, t_grid, replicates: int, rng):
    """Monte Carlo renewal function: rows (t, U_hat(t), stderr)."""
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    counts = walk_functionals(law, t_grid, replicates, rng)["renewals"]
    return [(float(t), est.mean, est.stderr)
            for t, est in zip(t_grid, map(mc_accumulate, counts.T))]

