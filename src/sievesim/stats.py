"""Distance and mean/standard-error utilities for the Monte Carlo checks.

Thresholds throughout the package are stated directly as distances
(KS, total variation); there is deliberately no p-value machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "McEstimate",
    "mc_accumulate",
    "mc_merge",
    "ks_two_sample",
    "ks_one_sample",
    "tv_distance",
]


@dataclass(frozen=True)
class McEstimate:
    """The mean of ``count`` values and ``m2``, their sum of squared deviations."""

    count: int
    mean: float
    m2: float

    @property
    def stderr(self) -> float:
        n = self.count
        return math.sqrt(self.m2 / (n - 1)) / math.sqrt(n) if n >= 2 else 0.0


def mc_accumulate(values) -> McEstimate:
    """Mean with standard error of an array of reals: the bits of
    ``values.mean()`` and ``values.std(ddof=1) / sqrt(n)``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("mc_accumulate needs at least one value")
    mean = values.mean()
    return McEstimate(count=values.size, mean=float(mean), m2=float(np.sum((values - mean) ** 2)))


def mc_merge(estimates) -> McEstimate:
    """The estimate of the disjoint samples of ``estimates`` pooled left to
    right by the update of Chan, Golub and LeVeque (1979); one estimate is
    returned as it is."""
    total, *rest = estimates
    for est in rest:
        count = total.count + est.count
        delta = est.mean - total.mean
        total = McEstimate(count, total.mean + delta * (est.count / count),
                           total.m2 + est.m2 + delta * delta * (total.count * est.count / count))
    return total


def ks_two_sample(xs, ys) -> float:
    """Exact sup-distance between the two empirical CDFs."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("ks_two_sample requires nonempty samples")
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_one_sample(xs, cdf) -> float:
    """Sup-distance between the empirical CDF of ``xs`` and a given CDF."""
    xs = np.sort(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise ValueError("ks_one_sample requires a nonempty sample")
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def tv_distance(p, q) -> float:
    """Total variation between two ``chains.Pmf``s, charging mismatched tail
    deficits; the shorter support is zero-padded."""
    width = max(p.masses.size, q.masses.size)
    pm = np.pad(p.masses, (0, width - p.masses.size))
    qm = np.pad(q.masses, (0, width - q.masses.size))
    return float(0.5 * np.abs(pm - qm).sum() + 0.5 * abs(p.tail_deficit - q.tail_deficit))
