"""Tour of perturbed random walks: renewal counting, the busy-server and
empty-box functionals, and the weighted-window statistic.

Run:  python demos/perturbed_walk_tour.py
"""

import numpy as np

from sievesim import (
    AlphaBeta,
    ConstantLaw,
    ExponentialLaw,
    ParetoLaw,
    PrwLaw,
    RngStream,
    renewal_function_estimate,
    walk_functionals,
    z_moment,
)

rng = RngStream(seed=99).generator()

print("=" * 72)
print("1. Renewal function estimates")
print("=" * 72)
poisson_law = PrwLaw.independent(ExponentialLaw(1.0), ConstantLaw(0.0))
for t, mean, se in renewal_function_estimate(poisson_law, [1.0, 5.0, 10.0], 2000, rng):
    print(f"  exponential steps, U({t:4.1f}) = {mean:6.3f} +- {se:.3f}   (exact {t + 1:.1f})")

print()
print("=" * 72)
print("2. Heavy-tailed steps: scaled renewal counts go Mittag-Leffler")
print("=" * 72)
law = PrwLaw.independent(ParetoLaw(0.5), ParetoLaw(0.25))
t = 1e4
# walk_functionals runs many walks in lockstep and stores none of them
counts = walk_functionals(law, [t], 20_000, rng)["renewals"][:, 0]
print(f"  renewal counts N(t) to t = 1e4: median {np.median(counts):.0f}, "
      f"largest {counts.max():.0f} of 20000 walks")
scaled = float(law.xi_tail(t)) * counts
print(f"  Pareto(1/2) steps at t = 1e4: mean of (1-F(t))*N(t) = {scaled.mean():.4f} "
      f"(limit 2/pi = {2 / np.pi:.4f})")

print()
print("=" * 72)
print("3. Empty-box functional and busy servers share one limit")
print("=" * 72)
x = 1e4
ratio = float(law.xi_tail(x) / law.eta_tail(x))
values = walk_functionals(law, [x], 4000, rng, ("empty", "busy"))
t_vals, r_vals = ratio * values["empty"][:, 0], ratio * values["busy"][:, 0]
target = z_moment(AlphaBeta(0.5, 0.25), 1)
print(f"  normalized T(e^x) at x = 1e4: mean {t_vals.mean():.4f}")
print(f"  normalized R(x)   at x = 1e4: mean {r_vals.mean():.4f}")
print(f"  limit-law mean:               {target:.4f}")
print("  (at this scale T and R are nearly identical: both count intervals")
print("   straddling the window edge, smoothed over a width-1 band)")

print()
print("=" * 72)
print("4. Weighted-window statistic: the mean error shrinks with t")
print("=" * 72)
q_fn = lambda v: (1.0 + v) ** -0.25
t_list = (1e2, 1e3, 1e4)
means = walk_functionals(law, t_list, 20_000, rng, ("window",), q=q_fn)["window"].mean(axis=0)
for tt, mean in zip(t_list, means):
    print(f"  t = {tt:7.0f}: mean {mean:.4f}, relative error {abs(mean - target) / target:.2%}")
print("\ndone.")
