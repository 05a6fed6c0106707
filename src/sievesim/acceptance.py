"""Verification suite: every exit check of the package with its pinned
tolerance, runnable one by one or in named groups.

Each criterion is deterministic given the master seed: replicate streams
are indexed per criterion, so any criterion rerun with the same seed
reproduces its metrics exactly, regardless of what else ran.

The large Monte Carlo samples are the rows of ``SAMPLES``: each names its
stream id, size, chunk worker, payload of law objects and reducer, and
``_sample`` draws it through ``runner.run_chunks``, spread over ``jobs``
processes.  That runner defines the chunk address (seed, sample's stream
id, chunk), so the draws do not depend on ``jobs``.  The rows are:

* the limit-law draws of criteria 3, 4, 5, 12 and 13, one row per
  (alpha, beta) pair on streams 1000-1004, joined in the parent and
  memoised per process in ``_Z_CACHE``;
* the walks of criteria 11 (stream 110) and 12 (stream 120), joined in the
  parent;
* the samples that the criteria read only as moments or value counts,
  which their reducer shrinks where each chunk is drawn, so the parent
  folds the chunk reductions in chunk order and never holds the sample.
  Criterion 6's subordinator marginals (stream 60) reduce to mergeable
  means of exp(-x Y).  Criterion 7's four chain samples (stream 70),
  criterion 8's six sieve cases (stream 80), criterion 9's
  interval-allocation sample (stream 90) and criterion 14's sieve sample
  (stream 140) reduce to value counts per column.

Criteria 4, 5, 10, 13 and 14 also draw smaller samples in the parent, on
the plain stream ids 40, 50, 100 and 101, 130 and 140; chunk addresses are
at least 2^32, so the two never meet.

Two distributional checks (numbers 12 and 13) probe limits with a
logarithmic convergence rate at fixed desk scale; both run exactly at
their pinned scales and print their measured values.  Number 12's KS
distance is floored by the lattice of the finite-scale law above its
tolerance (it reads FAIL; the details carry the analysis), and number
13's growth slope sits at its band edge (it passes at the default seed).
The gaps are the finite-scale remainder of the limit theorems, not
sampler error.

Three verdicts depend on the seed at their pinned sizes:

* criterion 10's variance clause: the replay's sample variance of 10^4
  Poissonized counts is held to 5% of the exact conditional variance; at
  seed 1 it reads 5.94% and fails, at seeds 2-12 and the default seed it
  passes;
* criterion 11's monotone clause: the relative errors it orders have Monte
  Carlo standard errors of about 0.25%, and at seed 4 they read
  2.84%/0.32%/0.40%, so the clause fails there;
* criterion 13's slope band: the exact Poissonized mean has slope 0.214
  over 10^3-10^6, 0.014 inside the band's lower edge of 0.2, against a
  seed-to-seed spread of about 0.017.  Over seeds 1-12 it fails at seeds
  1, 3, 9 and 11 (slopes 0.178-0.199) and passes at the other eight.
  Its KS clause reads only the zero-atom frequencies of the sieve counts,
  not the limit-law draws (see the criterion).
"""

from __future__ import annotations

import io
import math
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import chains, limitlaw, runner, sieve, stats, walks
from .checks import (EXACT_TOL, TV_TOL, chain_sampler_check, geometric_half_check, moment_check,
                     moment_identity_errors)
from .randkit import RngStream

DEFAULT_SEED = 20260811

SUITES = {
    "exact": (1, 2),
    "sampler": (3, 4, 5, 6),
    "chain": (1, 7),
    "sieve": (8, 9, 10, 14),
    "walk": (11, 12),
    "trend": (13,),
    "determinism": (15,),
    "all": tuple(range(1, 16)),
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    metrics: dict

    def report_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} ({self.name}): {self.details}"


def suite_criteria(suite: str):
    try:
        return SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}") from None


# ----------------------------------------------------------------------
# the chunked samples

def _chunk_sieve_empty(rng, count, cases, method):
    """Empty-box counts of ``count`` sieve replicates per (W law, balls)
    case by ``sample_occupancy``'s ``method``, the cases drawn one after
    another from the chunk's stream, one column each, and the number of
    replicates truncated."""
    empty, truncated = np.empty((count, len(cases)), dtype=np.int32), 0
    for k, (wlaw, balls) in enumerate(cases):
        batch = sieve.sample_occupancy(wlaw, balls, count, rng, method=method)
        empty[:, k] = batch.empty_in_range
        truncated += batch.truncated
    return empty, truncated


def _chunk_chains(rng, count, specs, n):
    """Zero-decrement counts of ``count`` chains from state ``n``: per spec
    a direct and then a geometric-representation sample, drawn one after
    another from the chunk's stream, one column each."""
    return np.stack([sample(spec, n, count, rng) for spec in specs
                     for sample in (chains.sample_zero_decrements, chains.sample_geometric_rep)],
                    axis=1)


def _chunk_subordinator(rng, count, alphas, eps):
    """Marginals Y(1) of the eps-truncated subordinator, ``count`` per
    alpha, the alphas drawn one after another from the chunk's stream, one
    column each."""
    return np.stack([limitlaw.sample_subordinator_marginal(alpha, 1.0, eps, rng, size=count)
                     for alpha in alphas], axis=1)


def _value_counts(result):
    """A chunk of integer counts reduced where it is drawn: ``np.bincount``
    of each column, and the truncation count of a sieve chunk (else 0)."""
    table, truncated = result if isinstance(result, tuple) else (result, 0)
    return [np.bincount(column) for column in table.T], truncated


_LAPLACE_X = (0.5, 1.0, 2.0)  # criterion 6's Laplace arguments


def _laplace_estimates(y):
    """A chunk of subordinator marginals reduced where it is drawn: per
    column, the mergeable mean of exp(-x * Y) at each x of ``_LAPLACE_X``."""
    return [[stats.mc_accumulate(np.exp(-x * column)) for x in _LAPLACE_X] for column in y.T]


_Z_GRID = 1e-4

# name -> (stream id, replicates, chunk worker, payload, reducer): a limit-law
# pair (alpha, beta) names its path-integral draws, a criterion number its
# sample.  A reducer runs where each chunk is drawn, so the parent folds chunk
# reductions and never holds the sample.  Sizes are canonical, so results do
# not depend on which criteria run together.
SAMPLES = {
    **{pair: (stream, size, runner.chunk_sample_z,
              (limitlaw.AlphaBeta(*pair), "pathint", _Z_GRID, None), None)
       for stream, pair, size in [(1000, (0.5, 0.0), 100_000), (1001, (0.5, 0.25), 100_000),
                                  (1002, (0.5, 0.5), 100_000), (1003, (0.6, 0.3), 20_000),
                                  (1004, (0.75, 0.5), 100_000)]},
    6: (60, 200_000, _chunk_subordinator, ((0.3, 0.5, 0.8), 1e-3), _laplace_estimates),
    7: (70, 100_000, _chunk_chains,
        (tuple(chains.sieve_chain_spec(wlaw, 30) for wlaw in (sieve.UniformW(), sieve.BetaW(2, 3))),
         30), _value_counts),
    8: (80, 100_000, _chunk_sieve_empty,
        (tuple((wlaw, balls) for wlaw in (sieve.UniformW(), sieve.BetaW(2, 2))
               for balls in (5, 50, 500)), "multinomial"), _value_counts),
    9: (90, 100_000, _chunk_sieve_empty, (((sieve.UniformW(), 100),), "uniform"), _value_counts),
    # walks of Pareto(1/2) steps and Pareto(1/4) perturbations
    11: (110, 100_000, runner.chunk_prw,
         (walks.PrwLaw.independent(walks.ParetoLaw(0.5), walks.ParetoLaw(0.25)),
          (1e2, 1e3, 1e4), ("window",), 0.25), None),
    12: (120, 10_000, runner.chunk_prw,
         (walks.PrwLaw.independent(walks.ParetoLaw(0.5), walks.ParetoLaw(0.25)),
          (1e4,), ("empty", "busy"), 0.25), None),
    14: (140, 100_000, _chunk_sieve_empty, (((sieve.BetaW(2, 1), 100_000),), "multinomial"),
         _value_counts),
}
_Z_CACHE: dict = {}


def _sample(name, seed: int, jobs: int):
    """The sample ``SAMPLES[name]`` at ``seed``: with a reducer, its chunks'
    reductions in chunk order; without one, its chunk arrays joined."""
    stream, total, worker, payload, reduce = SAMPLES[name]
    parts = runner.run_chunks(worker, seed, total, jobs, payload, stream, reduce=reduce)
    return parts if reduce is not None else np.concatenate(parts)


def _column_counts(name, seed: int, jobs: int):
    """The value counts of the sample ``SAMPLES[name]``: for each column, its
    chunks' ``np.bincount`` in chunk order, and the truncation count summed."""
    columns, truncated = zip(*_sample(name, seed, jobs))
    return list(zip(*columns)), sum(truncated)


def _z_draws(alpha: float, beta: float, seed: int, jobs: int) -> np.ndarray:
    key = (alpha, beta, seed)
    if key not in _Z_CACHE:
        _Z_CACHE[key] = _sample((alpha, beta), seed, jobs)
    return _Z_CACHE[key]


# ----------------------------------------------------------------------
# the criteria: each check returns (passed, details, metrics)

_CRITERIA: dict = {}  # number -> (name, check)


def _criterion(number: int, name: str):
    """Register ``check(seed, jobs)`` as criterion ``number``, reported as ``name``."""
    def register(check):
        _CRITERIA[number] = (name, check)
        return check
    return register


@_criterion(1, "exact geometric law from the zero-decrement DP")
def _exact_dp_geometric(seed: int, jobs: int):
    """Every chain with s_{j,floor} = s_{j,j} has the geometric(1/2) law."""
    specs = {
        "uniform sieve": chains.sieve_chain_spec(sieve.UniformW(), 60),
        "half-constant sieve": chains.sieve_chain_spec(sieve.ConstantW(0.5), 60),
        "dyadic barrier": chains.barrier_chain_spec(2.0 ** -np.arange(1, 61, dtype=float), 60),
    }
    worst = 0.0
    for spec in specs.values():
        starts = range(spec.floor + 1, 61)
        for pmf in chains.exact_zero_decrement_pmfs(spec, starts):
            m_top = min(40, pmf.masses.size - 1)
            target = chains.geometric_pmf(0.5, m_top + 1).masses
            worst = max(worst, float(np.abs(pmf.masses[: m_top + 1] - target).max()))
    passed = worst <= EXACT_TOL
    return (passed,
            f"max |pmf(m) - 2^-(m+1)| = {worst:.2e} over n <= 60, m <= 40 (tol {EXACT_TOL:g})",
            {"max_abs_err": worst})


@_criterion(2, "moment-formula identities")
def _moment_identities(seed: int, jobs: int):
    worst = 0.0
    for alpha in np.arange(0.1, 0.95, 0.1):
        alpha = round(float(alpha), 10)
        worst = max(worst, *(max(e) for e in moment_identity_errors(alpha, range(1, 7))))
    passed = worst <= EXACT_TOL
    return (passed,
            f"max relative error {worst:.2e} over alpha grid, n <= 6 (tol {EXACT_TOL:g})",
            {"max_rel_err": worst})


@_criterion(3, "path-integral sampler moments")
def _pathint_moments(seed: int, jobs: int):
    combos = [(0.5, 0.0), (0.5, 0.25), (0.75, 0.5), (0.5, 0.5)]
    fails, details = [], []
    for alpha, beta in combos:
        z = _z_draws(alpha, beta, seed, jobs)
        params = limitlaw.AlphaBeta(alpha, beta)
        for order in (1, 2):
            est, target, _, ok = moment_check(stats.mc_accumulate(z**order), params, order)
            if not ok:
                fails.append((alpha, beta, order))
            details.append(f"({alpha},{beta}) m{order} {est.mean:.4f}~{target:.4f}")
    passed = not fails
    return (passed,
            f"grid 1e-4, 1e5 draws; {'all within 3SE+2%' if passed else f'failures: {fails}'}",
            {"summary": details})


@_criterion(4, "special-case laws (exponential and Mittag-Leffler)")
def _special_case_laws(seed: int, jobs: int):
    z_aa = _z_draws(0.5, 0.5, seed, jobs)[:10_000]
    d_exp = stats.ks_one_sample(z_aa, lambda x: -np.expm1(-np.maximum(x, 0.0)))
    z_a0 = _z_draws(0.5, 0.0, seed, jobs)[:10_000]
    rng = RngStream(seed, 40).generator()
    ml = limitlaw.sample_mittag_leffler(0.5, rng, size=10_000)
    d_ml = stats.ks_two_sample(z_a0, ml)
    passed = d_exp <= 0.02 and d_ml <= 0.025
    return (passed,
            f"KS vs Exp(1) {d_exp:.4f} (tol 0.02); "
            f"KS path-integral vs direct ML {d_ml:.4f} (tol 0.025)",
            {"ks_exponential": d_exp, "ks_mittag_leffler": d_ml})


@_criterion(5, "exponential-functional sampler agreement")
def _expfunctional_agreement(seed: int, jobs: int):
    rng = RngStream(seed, 50).generator()
    z_ef = limitlaw.sample_z_expfunctional(limitlaw.AlphaBeta(0.5, 0.25), 1e-4, rng, size=10_000)
    z_pi = _z_draws(0.5, 0.25, seed, jobs)[:10_000]
    d = stats.ks_two_sample(z_ef, z_pi)
    passed = d <= 0.03
    return (passed,
            f"KS vs path integral at (0.5, 0.25), eps 1e-4: {d:.4f} (tol 0.03)",
            {"ks": d})


@_criterion(6, "truncated-jump Laplace exponent")
def _laplace_exponent(seed: int, jobs: int):
    alphas, _ = SAMPLES[6][3]
    parts = _sample(6, seed, jobs)
    fails, worst = [], 0.0
    for k, alpha in enumerate(alphas):
        for j, x in enumerate(_LAPLACE_X):
            est = stats.mc_merge(part[k][j] for part in parts)
            target = math.exp(-limitlaw.phi_alpha(alpha, x))
            tol = 3.0 * est.stderr + 0.01 * target
            gap = abs(est.mean - target)
            worst = max(worst, gap / target)
            if gap > tol:
                fails.append((alpha, x))
    passed = not fails
    return (passed,
            f"eps 1e-3 with small-jump mean drift; worst relative gap {worst:.2%}"
            + ("" if passed else f"; failures {fails}"),
            {"worst_rel_gap": worst})


@_criterion(7, "chain sampler three-way agreement")
def _chain_sampler_agreement(seed: int, jobs: int):
    specs, n = SAMPLES[7][3]
    columns, _ = _column_counts(7, seed, jobs)
    worst = 0.0
    lines = []
    for k, (label, spec) in enumerate(zip(("uniform", "beta(2,3)"), specs)):
        dp = chains.exact_zero_decrement_pmf(spec, n)
        sim_pmf, rep_pmf, tv_sim, tv_rep, _ = chain_sampler_check(
            dp, columns[2 * k], columns[2 * k + 1])
        tvs = (tv_sim, tv_rep, stats.tv_distance(sim_pmf, rep_pmf))
        worst = max(worst, *tvs)
        lines.append(f"{label}: {max(tvs):.4f}")
    passed = worst <= TV_TOL
    return (passed,
            f"worst pairwise TV at n=30, 1e5 reps: {worst:.4f} (tol {TV_TOL}; {'; '.join(lines)})",
            {"worst_tv": worst})


@_criterion(8, "symmetric-W geometric empty-box law")
def _symmetric_geometric(seed: int, jobs: int):
    columns, truncated = _column_counts(8, seed, jobs)
    worst = max(geometric_half_check(chains.counts_pmf(column))[0] for column in columns)
    passed = worst <= TV_TOL and truncated == 0
    return (passed,
            f"worst TV vs geometric(1/2) over uniform/beta(2,2), n in {{5,50,500}}: {worst:.4f} "
            f"(tol {TV_TOL})"
            + (f"; {truncated} replicates truncated" if truncated else ""),
            {"worst_tv": worst, "truncated": truncated})


@_criterion(9, "chain DP vs sieve occupancy")
def _chain_vs_sieve(seed: int, jobs: int):
    (((wlaw, balls),), _) = SAMPLES[9][3]
    dp = chains.exact_zero_decrement_pmf(chains.sieve_chain_spec(wlaw, balls), balls)
    (column,), _ = _column_counts(9, seed, jobs)
    tv = stats.tv_distance(chains.counts_pmf(column, width=dp.masses.size), dp)
    passed = tv <= TV_TOL
    return (passed,
            f"TV between DP law and interval-allocation sample at n=100: {tv:.4f} (tol {TV_TOL})",
            {"tv": tv})


@_criterion(10, "conditional mean/variance formulas")
def _conditional_formulas(seed: int, jobs: int):
    t = 100.0
    freqs = sieve.FrequencySeq(sieve.UniformW(), RngStream(seed, 100).generator())
    mean_formula, var_formula = sieve.empty_moments_given_freqs(freqs, t)
    rng = RngStream(seed, 101).generator()
    replay = sieve.sample_occupancy(
        sieve.UniformW(), 100, 10_000, rng, freqs=freqs, poissonized=True
    ).empty_in_range
    est = stats.mc_accumulate(replay)
    mean_ok = abs(est.mean - mean_formula) <= 3.0 * est.stderr
    var_emp = float(np.var(replay, ddof=1))
    var_rel = abs(var_emp - var_formula) / var_formula
    var_ok = var_rel <= 0.05
    passed = mean_ok and var_ok
    return (passed,
            f"mean {est.mean:.4f} vs {mean_formula:.4f} (3SE {3*est.stderr:.4f}); "
            f"variance {var_emp:.4f} vs {var_formula:.4f} (rel {var_rel:.2%}, tol 5%)",
            {"mean_gap": abs(est.mean - mean_formula), "var_rel": var_rel})


@_criterion(11, "weighted-window statistic mean trend")
def _window_statistic_trend(seed: int, jobs: int):
    target = limitlaw.z_moment(limitlaw.AlphaBeta(0.5, 0.25), 1)
    rel_errs = np.abs(_sample(11, seed, jobs).mean(axis=0) - target) / target
    monotone = bool(rel_errs[0] > rel_errs[1] > rel_errs[2])
    passed = rel_errs[2] <= 0.15 and monotone
    return (passed,
            f"relative errors at t=1e2/1e3/1e4: "
            f"{rel_errs[0]:.2%}/{rel_errs[1]:.2%}/{rel_errs[2]:.2%} "
            f"(final tol 15%, monotone decrease {'yes' if monotone else 'NO'})",
            {"rel_errs": [float(x) for x in rel_errs]})


@_criterion(12, "walk functionals vs limit law at log t = 1e4")
def _walk_functionals_vs_limit(seed: int, jobs: int):
    law, (x,), _, _ = SAMPLES[12][3]
    ratio = runner.prw_scale(law, x, "busy")  # P{xi > x} / P{eta > x}
    t_vals, r_vals = _sample(12, seed, jobs).T
    z = _z_draws(0.5, 0.25, seed, jobs)[:t_vals.size]
    d_t = stats.ks_two_sample(t_vals, z)
    d_r = stats.ks_two_sample(r_vals, z)
    atoms = np.bincount(np.round(r_vals / ratio).astype(int))
    max_atom = float(atoms.max() / atoms.sum())
    passed = d_t <= 0.05 and d_r <= 0.05
    return (passed,
            f"KS T {d_t:.4f}, KS R {d_r:.4f} (tol 0.05); the normalized laws sit on a "
            f"lattice of step {ratio:.3g} whose largest atom is {max_atom:.3f}, which floors "
            f"the KS distance near that value at this scale",
            {"ks_T": d_t, "ks_R": d_r, "lattice_step": ratio, "max_atom": max_atom})


@_criterion(13, "empty-box growth trend for the logarithmic mixture")
def _mixture_growth_trend(seed: int, jobs: int):
    """The slope of log E L_n against log log n, and KS distances of the
    normalized counts to the (0.6, 0.3) limit-law draws that must not grow.

    The KS clause reads no value of those draws: Z > 0 while the counts have
    an atom at 0, so each distance is the supremum at that atom, the sample
    frequency of L_n = 0 (0.3844/0.3583/0.3529/0.3407 at the default seed,
    unchanged when every Z draw moves by a relative 1e-3).  So the clause
    checks that the zero-atom frequency does not rise with n.
    """
    wlaw = sieve.LogParetoMixtureW(0.6, 0.3, 0.5)
    rng = RngStream(seed, 130).generator()
    z = _z_draws(0.6, 0.3, seed, jobs)
    balls = [10**3, 10**4, 10**5, 10**6]
    log_means, ks_seq = [], []
    for n in balls:
        ratio = sieve.normalization_ratio(wlaw, n)
        normalized = ratio * sieve.sample_occupancy(wlaw, n, 20_000, rng).empty_in_range
        log_means.append(math.log(stats.mc_accumulate(normalized).mean / ratio))
        ks_seq.append(stats.ks_two_sample(normalized, z))
    slope = float(np.polyfit([math.log(math.log(n)) for n in balls], log_means, 1)[0])
    ks_monotone = all(ks_seq[i] >= ks_seq[i + 1] for i in range(len(ks_seq) - 1))
    slope_ok = abs(slope - 0.3) <= 0.1
    passed = slope_ok and ks_monotone
    slope_note = "" if slope_ok else (
        ", OUTSIDE: the slowly varying prefactor still decays over this n range"
    )
    return (passed,
            f"slope {slope:.3f} (band 0.3 +- 0.1{slope_note}); KS sequence "
            + "/".join(f"{d:.3f}" for d in ks_seq)
            + (" non-increasing" if ks_monotone else " NOT non-increasing"),
            {"slope": slope, "ks_sequence": ks_seq})


@_criterion(14, "mixed-Poisson diagnostics")
def _mixed_poisson_diagnostics(seed: int, jobs: int):
    rng = RngStream(seed, 140).generator()
    problems = []
    # constructed mixed-Poisson inputs must pass; the draws are kept as value counts
    pois = [np.bincount(rng.poisson(3.0, size=100_000))]
    if not chains.mixed_poisson_counts_diagnostic(pois).passed:
        problems.append("Poisson(3) sample flagged")
    geo_report = chains.mixed_poisson_diagnostic(chains.geometric_pmf(0.5, 80))
    if not geo_report.passed:
        problems.append("geometric(1/2) pmf flagged")
    if any(abs(geo_report.factorial_moments[r - 1] - math.factorial(r)) > 1e-6 for r in range(1, 5)):
        problems.append("geometric factorial moments differ from r!")
    # advisory run on heavy-tail-free sieve samples
    (empty,), truncated = _column_counts(14, seed, jobs)
    if truncated:
        problems.append(f"{truncated} sieve replicates truncated")
    if not chains.mixed_poisson_counts_diagnostic(empty).passed:
        problems.append("beta(2,1) sieve sample flagged")
    # limit comparison: mixed Poisson with parameter 2|log(1-W)|
    (((wlaw, _),), _) = SAMPLES[14][3]
    w_draws = wlaw.sample(rng, size=100_000)
    mixed = [np.bincount(rng.poisson(2.0 * -np.log1p(-w_draws)))]
    width = max(c.size for c in (*empty, *mixed))
    tv = stats.tv_distance(chains.counts_pmf(empty, width), chains.counts_pmf(mixed, width))
    if tv > 0.02:
        problems.append(f"TV vs mixed-Poisson limit {tv:.4f} > 0.02")
    passed = not problems
    return (passed,
            f"constructed inputs pass; sieve sample passes; "
            f"TV vs mixed-Poisson limit {tv:.4f} (tol 0.02)"
            if passed else "; ".join(problems),
            {"tv_vs_limit": tv, "truncated": truncated})


@_criterion(15, "seeded determinism and parallelism independence")
def _determinism(seed: int, jobs: int):
    from . import cli

    argv_base = [
        "sieve", "--wlaw", "uniform", "--balls", "50",
        "--reps", "12000", "--seed", str(seed), "--format", "csv",
    ]
    blobs = []
    for run_jobs in (1, 2):
        # the nested runs' report lines stay off the suite's own output
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
            code = cli.main(argv_base + ["--out", tmp, "--jobs", str(run_jobs)])
            if code != 0:
                return False, f"CLI exited {code}", {}
            files = sorted(Path(tmp).iterdir())
            blobs.append({f.name: f.read_bytes() for f in files})
    identical = blobs[0] == blobs[1]
    # replicate streams must also be reproducible in isolation
    a = RngStream(seed, 7).generator().random(64)
    b = RngStream(seed, 7).generator().random(64)
    c = RngStream(seed, 8).generator().random(64)
    stream_ok = bool(np.array_equal(a, b) and not np.array_equal(a, c))
    passed = identical and stream_ok
    return (passed,
            f"outputs byte-identical across --jobs 1/2: {identical}; "
            f"stream reproducibility and separation: {stream_ok}",
            {"byte_identical": identical, "stream_ok": stream_ok})


def run_criterion(number: int, seed: int = DEFAULT_SEED, *, jobs: int) -> CriterionResult:
    try:
        name, check = _CRITERIA[number]
    except KeyError:
        raise ValueError(f"no criterion {number}") from None
    return CriterionResult(number, name, *check(seed, jobs))
