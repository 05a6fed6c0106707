"""Tour of the Bernoulli sieve: allocation representations, the symmetric-W
geometric law, conditional formulas, and the normalized empty-box trend.

Run:  python demos/sieve_occupancy_tour.py
"""

from sievesim import (
    AlphaBeta,
    BetaW,
    FrequencySeq,
    LogParetoMixtureW,
    RngStream,
    UniformW,
    empirical_pmf,
    empty_moments_given_freqs,
    geometric_pmf,
    ks_two_sample,
    mc_accumulate,
    normalization_ratio,
    sample_occupancy,
    sample_z_pathint,
    tv_distance,
)

rng = RngStream(seed=711).generator()

print("=" * 72)
print("1. Two representations of the same occupancy law")
print("=" * 72)
res = sample_occupancy(UniformW(), 1000, 3000, rng, method="uniform")  # interval allocation
print(f"  3k replicates of 1000 uniform balls on stick-breaking intervals: mean occupied "
      f"{res.occupied.mean():.2f}, mean empty {res.empty_in_range.mean():.3f}")
batch = sample_occupancy(UniformW(), 1000, 30_000, rng)  # binomial-thinning lockstep
print(f"  30k replicates via binomial thinning: mean occupied {batch.occupied.mean():.2f}, "
      f"mean empty {batch.empty_in_range.mean():.3f}")

print()
print("=" * 72)
print("2. Symmetric W: the empty-box count is geometric(1/2) at every n")
print("=" * 72)
for wlaw, label in [(UniformW(), "uniform"), (BetaW(2, 2), "beta(2,2)")]:
    for n in (5, 500):
        counts = sample_occupancy(wlaw, n, 30_000, rng).empty_in_range
        emp = empirical_pmf(counts)
        tv = tv_distance(emp, geometric_pmf(0.5, emp.masses.size))
        print(f"  {label:9s} n = {n:4d}: TV distance to geometric(1/2) = {tv:.4f}")

print()
print("=" * 72)
print("3. Conditional formulas on one frozen frequency draw (t = 100)")
print("=" * 72)
freqs = FrequencySeq(UniformW(), RngStream(seed=711, stream_id=1).generator())
mean_f, var_f = empty_moments_given_freqs(freqs, 100.0)
replay = sample_occupancy(UniformW(), 100, 20_000, rng, freqs=freqs, poissonized=True)
print(f"  formula:     E[L | freqs] = {mean_f:.4f},  Var[L | freqs] = {var_f:.4f}")
print(f"  20k replays: mean = {replay.empty_in_range.mean():.4f},  "
      f"variance = {replay.empty_in_range.var(ddof=1):.4f}")

print()
print("=" * 72)
print("4. Heavy log-tails: normalized empty boxes approach the limit law")
print("=" * 72)
mix = LogParetoMixtureW(0.6, 0.3, p=0.5)
print(f"  normalization ratio at n = 10^6: {normalization_ratio(mix, 10**6):.4f} "
      f"(exactly (log n)^-0.3)")
z = sample_z_pathint(AlphaBeta(0.6, 0.3), 1e-3, rng, size=10_000)
print(f"  limit-law mean: {z.mean():.4f} (analytic {0.6520:.4f})")
for n in (10**3, 10**4, 10**5, 10**6):
    normalized = normalization_ratio(mix, n) * sample_occupancy(mix, n, 10_000, rng).empty_in_range
    est = mc_accumulate(normalized)
    print(f"  n = {n:>7d}: normalized mean {est.mean:.4f} "
          f"(+- {est.stderr:.4f}), KS to limit {ks_two_sample(normalized, z):.4f}")
print("  (the KS column shrinks with n; the rate is logarithmic, so slowly)")
print("\ndone.")
