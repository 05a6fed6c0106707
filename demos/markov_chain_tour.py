"""Tour of the absorbing-chain machinery: exact zero-decrement laws, the
geometric exactness class, sampler agreement, and mixed-Poisson diagnostics.

Run:  python demos/markov_chain_tour.py
"""

import numpy as np

from sievesim import (
    BetaW,
    RngStream,
    UniformW,
    barrier_chain_spec,
    chain_to_json,
    empirical_pmf,
    exact_zero_decrement_pmf,
    mixed_poisson_counts_diagnostic,
    sample_geometric_rep,
    sample_occupancy,
    sample_zero_decrements,
    sieve_chain_spec,
    tv_distance,
)

rng = RngStream(seed=5150).generator()

print("=" * 72)
print("1. The geometric exactness class: s_(j,floor) = s_(j,j)")
print("=" * 72)
uniform_chain = sieve_chain_spec(UniformW(), 60)
dp = exact_zero_decrement_pmf(uniform_chain, 60)
target = 2.0 ** -(np.arange(dp.masses.size) + 1.0)
print(f"  uniform sieve chain, n = 60: max |pmf - 2^-(m+1)| = "
      f"{np.abs(dp.masses - target).max():.2e}")
barrier = barrier_chain_spec(2.0 ** -np.arange(1, 61, dtype=float), 60)
dpb = exact_zero_decrement_pmf(barrier, 60)
tb = 2.0 ** -(np.arange(dpb.masses.size) + 1.0)
print(f"  dyadic barrier walk,  n = 60: max |pmf - 2^-(m+1)| = "
      f"{np.abs(dpb.masses - tb).max():.2e}")

print()
print("=" * 72)
print("2. Three routes to one law (beta(2,3) sieve chain, n = 30)")
print("=" * 72)
spec = sieve_chain_spec(BetaW(2, 3), 30)
dp = exact_zero_decrement_pmf(spec, 30)
sim = sample_zero_decrements(spec, 30, 50_000, rng)
rep = sample_geometric_rep(spec, 30, 50_000, rng)
width = max(dp.masses.size, sim.max() + 1, rep.max() + 1)
print(f"  TV(direct simulation, DP)       = {tv_distance(empirical_pmf(sim, width=width), dp):.4f}")
print(f"  TV(geometric representation, DP) = {tv_distance(empirical_pmf(rep, width=width), dp):.4f}")

print()
print("=" * 72)
print("3. The sieve's empty boxes ARE a zero-decrement count")
print("=" * 72)
chain100 = sieve_chain_spec(UniformW(), 100)
dp100 = exact_zero_decrement_pmf(chain100, 100)
occupancy = sample_occupancy(UniformW(), 100, 50_000, rng).empty_in_range
tv = tv_distance(empirical_pmf(occupancy, width=dp100.masses.size), dp100)
print(f"  TV(chain DP at n=100, sieve occupancy sample) = {tv:.4f}")

print()
print("=" * 72)
print("4. Mixed-Poisson diagnostics")
print("=" * 72)
batch = sample_occupancy(BetaW(2, 1), 100_000, 50_000, rng)
report = mixed_poisson_counts_diagnostic([np.bincount(batch.empty_in_range)])
print(f"  beta(2,1) sieve, n = 1e5: factorial moments "
      f"{['%.3f' % p for p in report.factorial_moments]}")
print(f"  variance {report.variance:.3f} >= mean {report.mean:.3f}; "
      f"Hankel dets {report.hankel2:.3f}, {report.hankel3:.3f} (both must be >= -tol)")
print(f"  verdict: {'consistent with mixed Poisson' if report.passed else 'FLAGGED'}")

print()
print("=" * 72)
print("5. Chain specs round-trip through JSON")
print("=" * 72)
small = sieve_chain_spec(UniformW(), 4)
print(chain_to_json(small))
print("done.")
