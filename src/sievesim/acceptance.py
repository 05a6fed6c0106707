"""Verification suite: every exit check of the package with its pinned
tolerance, runnable one by one or in named groups.

Each criterion is deterministic given the master seed: replicate streams
are indexed per criterion, so any criterion rerun with the same seed
reproduces its metrics exactly, regardless of what else ran.

The large Monte Carlo samples are the rows of ``SAMPLES``: each names its
stream id, size, chunk worker and payload of law objects, and ``_sample``
draws it through ``cli._run_chunks``, spread over ``jobs`` processes.  That
runner defines the chunk address (seed, sample's stream id, chunk), so the
draws do not depend on ``jobs``.  The limit-law draws, shared by criteria
3, 4, 5, 12 and 13, are memoised per process in ``_Z_CACHE``.

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
"""

from __future__ import annotations

import io
import math
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import chains, cli, limitlaw, sieve, stats, walks
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
# checks that the CLI experiments run as well

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


# ----------------------------------------------------------------------
# the chunked samples

def _chunk_interval_empty(rng, count, balls):
    batch = sieve.sample_occupancy(sieve.UniformW(), balls, count, rng, method="uniform")
    return batch.empty_in_range


def _chunk_sieve_empty(rng, count, cases):
    """Empty-box counts of ``count`` sieve replicates per (W law, balls)
    case, the cases drawn one after another from the chunk's stream, one
    column each, and the number of replicates truncated.

    The counts are below the ball count, so int32 holds them at half the
    memory the parent process needs for the joined sample.
    """
    empty, truncated = np.empty((count, len(cases)), dtype=np.int32), 0
    for k, (wlaw, balls) in enumerate(cases):
        batch = sieve.sample_occupancy(wlaw, balls, count, rng)
        empty[:, k] = batch.empty_in_range
        truncated += batch.truncated
    return empty, truncated


_Z_GRID = 1e-4

# name -> (stream id, replicates, chunk worker, payload): a limit-law pair
# (alpha, beta) names its path-integral draws, a criterion number its sample.
# Sizes are canonical, so results do not depend on which criteria run together.
SAMPLES = {
    **{pair: (stream, size, cli._chunk_sample_z,
              (limitlaw.AlphaBeta(*pair), "pathint", _Z_GRID, None))
       for stream, pair, size in [(1000, (0.5, 0.0), 100_000), (1001, (0.5, 0.25), 100_000),
                                  (1002, (0.5, 0.5), 100_000), (1003, (0.6, 0.3), 20_000),
                                  (1004, (0.75, 0.5), 100_000)]},
    8: (80, 100_000, _chunk_sieve_empty,
        (tuple((wlaw, balls) for wlaw in (sieve.UniformW(), sieve.BetaW(2, 2))
               for balls in (5, 50, 500)),)),
    9: (90, 100_000, _chunk_interval_empty, (100,)),
    # walks of Pareto(1/2) steps and Pareto(1/4) perturbations
    11: (110, 100_000, cli._chunk_prw,
         (walks.PrwLaw.independent(walks.ParetoLaw(0.5), walks.ParetoLaw(0.25)),
          (1e2, 1e3, 1e4), ("window",), 0.25)),
    12: (120, 10_000, cli._chunk_prw,
         (walks.PrwLaw.independent(walks.ParetoLaw(0.5), walks.ParetoLaw(0.25)),
          (1e4,), ("empty", "busy"), 0.25)),
    14: (140, 100_000, _chunk_sieve_empty, (((sieve.BetaW(2, 1), 100_000),),)),
}
_Z_CACHE: dict = {}


def _sample(name, seed: int, jobs: int):
    """The sample ``SAMPLES[name]`` at ``seed``: its chunk results joined
    (an array, or an array and a truncation count for the sieve samples)."""
    stream, total, worker, payload = SAMPLES[name]
    return cli._join(cli._run_chunks(worker, seed, total, jobs, payload, stream))


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
    rng = RngStream(seed, 60).generator()
    eps, reps = 1e-3, 200_000
    fails, worst = [], 0.0
    for alpha in (0.3, 0.5, 0.8):
        y = limitlaw.sample_subordinator_marginal(alpha, 1.0, eps, rng, size=reps)
        for x in (0.5, 1.0, 2.0):
            vals = np.exp(-x * y)
            target = math.exp(-limitlaw.phi_alpha(alpha, x))
            est = stats.mc_accumulate(vals)
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
    n, reps = 30, 100_000
    worst = 0.0
    lines = []
    for k, (label, wlaw) in enumerate([("uniform", sieve.UniformW()), ("beta(2,3)", sieve.BetaW(2, 3))]):
        spec = chains.sieve_chain_spec(wlaw, n)
        dp = chains.exact_zero_decrement_pmf(spec, n)
        sim = chains.sample_zero_decrements(spec, n, reps, RngStream(seed, 70 + 2 * k).generator())
        rep = chains.sample_geometric_rep(spec, n, reps, RngStream(seed, 71 + 2 * k).generator())
        sim_pmf, rep_pmf, tv_sim, tv_rep, _ = chain_sampler_check(
            dp, [np.bincount(sim)], [np.bincount(rep)])
        tvs = (tv_sim, tv_rep, stats.tv_distance(sim_pmf, rep_pmf))
        worst = max(worst, *tvs)
        lines.append(f"{label}: {max(tvs):.4f}")
    passed = worst <= TV_TOL
    return (passed,
            f"worst pairwise TV at n=30, 1e5 reps: {worst:.4f} (tol {TV_TOL}; {'; '.join(lines)})",
            {"worst_tv": worst})


@_criterion(8, "symmetric-W geometric empty-box law")
def _symmetric_geometric(seed: int, jobs: int):
    empty, truncated = _sample(8, seed, jobs)
    worst = max(geometric_half_check(chains.empirical_pmf(column))[0] for column in empty.T)
    passed = worst <= TV_TOL and truncated == 0
    return (passed,
            f"worst TV vs geometric(1/2) over uniform/beta(2,2), n in {{5,50,500}}: {worst:.4f} "
            f"(tol {TV_TOL})"
            + (f"; {truncated} replicates truncated" if truncated else ""),
            {"worst_tv": worst, "truncated": truncated})


@_criterion(9, "chain DP vs sieve occupancy")
def _chain_vs_sieve(seed: int, jobs: int):
    (balls,) = SAMPLES[9][3]
    dp = chains.exact_zero_decrement_pmf(chains.sieve_chain_spec(sieve.UniformW(), balls), balls)
    emp = chains.empirical_pmf(_sample(9, seed, jobs), width=dp.masses.size)
    tv = stats.tv_distance(emp, dp)
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
    ratio = cli._prw_scale(law, x, "busy")  # P{xi > x} / P{eta > x}
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
    # constructed mixed-Poisson inputs must pass
    pois = rng.poisson(3.0, size=100_000)
    if not chains.mixed_poisson_diagnostic(pois).passed:
        problems.append("Poisson(3) sample flagged")
    geo_report = chains.mixed_poisson_diagnostic(chains.geometric_pmf(0.5, 80))
    if not geo_report.passed:
        problems.append("geometric(1/2) pmf flagged")
    if any(abs(geo_report.factorial_moments[r - 1] - math.factorial(r)) > 1e-6 for r in range(1, 5)):
        problems.append("geometric factorial moments differ from r!")
    # advisory run on heavy-tail-free sieve samples
    empty, truncated = _sample(14, seed, jobs)
    empty = empty[:, 0]
    if truncated:
        problems.append(f"{truncated} sieve replicates truncated")
    sieve_report = chains.mixed_poisson_diagnostic(empty)
    if not sieve_report.passed:
        problems.append("beta(2,1) sieve sample flagged")
    # limit comparison: mixed Poisson with parameter 2|log(1-W)|
    ((wlaw, _),), = SAMPLES[14][3]
    w_draws = wlaw.sample(rng, size=100_000)
    mixed = rng.poisson(2.0 * -np.log1p(-w_draws))
    width = max(int(empty.max()), int(mixed.max())) + 1
    tv = stats.tv_distance(
        chains.empirical_pmf(empty, width=width),
        chains.empirical_pmf(mixed, width=width),
    )
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
