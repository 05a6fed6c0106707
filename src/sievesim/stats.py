"""Distance and mean/standard-error utilities for the Monte Carlo checks.

Thresholds throughout the package are stated directly as distances
(KS, total variation); there is deliberately no p-value machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "McEstimate",
    "mc_accumulate",
    "ks_two_sample",
    "ks_one_sample",
    "tv_distance",
]


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    count: int


def mc_accumulate(values) -> McEstimate:
    """Mean with standard error from a stream of reals."""
    values = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if values.size == 0:
        raise ValueError("mc_accumulate needs at least one value")
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n >= 2 else 0.0
    return McEstimate(mean=mean, stderr=se, count=int(n))


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


def _masses_and_deficit(p):
    if hasattr(p, "masses"):
        return np.asarray(p.masses, dtype=float), float(getattr(p, "tail_deficit", 0.0))
    return np.asarray(p, dtype=float), 0.0


def tv_distance(p, q) -> float:
    """Total variation between finite pmfs, charging mismatched tail deficits.

    Accepts plain arrays or Pmf-like objects carrying ``masses`` and
    ``tail_deficit``; shorter supports are zero-padded.
    """
    pm, pd = _masses_and_deficit(p)
    qm, qd = _masses_and_deficit(q)
    width = max(pm.size, qm.size)
    pm = np.pad(pm, (0, width - pm.size))
    qm = np.pad(qm, (0, width - qm.size))
    return float(0.5 * np.abs(pm - qm).sum() + 0.5 * abs(pd - qd))
