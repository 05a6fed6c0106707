"""The checks that a CLI experiment shares with its verification criterion,
with their pinned tolerances: ``moments`` and criterion 2, ``sample-z`` and
criterion 3, ``sieve`` and criterion 8, ``markov`` and criterion 7.
"""

from __future__ import annotations

import math

from . import chains, limitlaw, stats

TV_TOL = 0.01
EXACT_TOL = 1e-10  # for quantities that exact arithmetic would make equal


def moment_check(est: stats.McEstimate, params: limitlaw.AlphaBeta, order: int):
    """Criterion 3's test of one empirical moment, the estimate ``est`` of
    the mean of Z**order, against ``z_moment``: |mean - target| <= 3 SE + 2%
    of the target.

    Returns the estimate, the target, the tolerance and the verdict.
    """
    target = limitlaw.z_moment(params, order)
    tol = 3.0 * est.stderr + 0.02 * target
    return est, target, tol, abs(est.mean - target) <= tol


def moment_identity_errors(alpha: float, orders):
    """Criterion 2's identities at one alpha: for each order n, the relative
    errors of the phi-product against Gamma(1+n*alpha) * Gamma(1-alpha)^n,
    of ``z_moment`` at beta = alpha against n!, and of ``z_moment`` at
    beta = 0 against ``mittag_leffler_moment``.

    Returns one (phi, factorial, Mittag-Leffler) triple per order.
    """
    errors = []
    for n in orders:
        prod = math.prod(limitlaw.phi_alpha(alpha, float(k)) + 1.0 for k in range(1, n + 1))
        closed = math.gamma(1.0 + n * alpha) * math.gamma(1.0 - alpha) ** n
        fact = math.factorial(n)
        rel_fact = abs(limitlaw.z_moment(limitlaw.AlphaBeta(alpha, alpha), n) - fact) / fact
        ml = limitlaw.mittag_leffler_moment(alpha, n)
        rel_ml = abs(limitlaw.z_moment(limitlaw.AlphaBeta(alpha, 0.0), n) - ml) / ml
        errors.append((abs(prod - closed) / closed, rel_fact, rel_ml))
    return errors


def geometric_half_check(emp: chains.Pmf):
    """Criterion 8's test: TV between an empty-box pmf and geometric(1/2).

    Returns the distance and the verdict.
    """
    tv = stats.tv_distance(emp, chains.geometric_pmf(0.5, emp.masses.size))
    return tv, tv <= TV_TOL


def chain_sampler_check(dp: chains.Pmf, sim, rep):
    """Criterion 7's test: TV of the direct and the geometric-representation
    samples, each given by the value counts of its chunks, against the DP law.

    Returns both empirical pmfs (on one common support), both distances and
    the verdict.
    """
    width = max(dp.masses.size, *(c.size for c in (*sim, *rep)))
    sim_pmf = chains.counts_pmf(sim, width)
    rep_pmf = chains.counts_pmf(rep, width)
    tv_sim = stats.tv_distance(sim_pmf, dp)
    tv_rep = stats.tv_distance(rep_pmf, dp)
    return sim_pmf, rep_pmf, tv_sim, tv_rep, max(tv_sim, tv_rep) <= TV_TOL
