"""Tour of the limit law Z: analytic moments, three samplers, one Laplace
exponent, and how they all agree.

Run:  python demos/limit_law_tour.py
"""

import math

import numpy as np

from sievesim import (
    AlphaBeta,
    RngStream,
    ks_two_sample,
    mittag_leffler_moment,
    phi_alpha,
    sample_mittag_leffler,
    sample_subordinator_marginal,
    sample_z_expfunctional,
    sample_z_pathint,
    z_moment,
)

rng = RngStream(seed=42).generator()

print("=" * 72)
print("1. Analytic moments")
print("=" * 72)
print("Z interpolates between the Mittag-Leffler law (beta = 0) and the")
print("standard exponential (beta = alpha):\n")
for beta, label in [(0.0, "Mittag-Leffler"), (0.25, "intermediate"), (0.5, "exponential")]:
    params = AlphaBeta(0.5, beta)
    moments = [z_moment(params, n) for n in range(1, 5)]
    print(f"  (alpha, beta) = (0.5, {beta}): moments {['%.4f' % m for m in moments]}  [{label}]")
print(f"\n  check: ML moments at alpha = 0.5 are {mittag_leffler_moment(0.5, 1):.4f}, "
      f"{mittag_leffler_moment(0.5, 2):.4f}, ... (= 2/pi = {2/math.pi:.4f})")

print()
print("=" * 72)
print("2. Three samplers, one law  (alpha = 0.5, beta = 0.25)")
print("=" * 72)
params = AlphaBeta(0.5, 0.25)
n = 20_000
z_path = sample_z_pathint(params, 1e-3, rng, size=n)
z_expf = sample_z_expfunctional(params, 1e-4, rng, size=n)
print(f"  path integral   : mean {z_path.mean():.4f}   (target {z_moment(params, 1):.4f})")
print(f"  exp. functional : mean {z_expf.mean():.4f}")
print(f"  two-sample KS distance: {ks_two_sample(z_path, z_expf):.4f}")

ml_direct = sample_mittag_leffler(0.5, rng, size=n)
ml_path = sample_z_pathint(AlphaBeta(0.5, 0.0), 1e-3, rng, size=n)
print(f"\n  beta = 0 special case: direct ML sampler vs path integral "
      f"KS = {ks_two_sample(ml_direct, ml_path):.4f}")

print()
print("=" * 72)
print("3. The driving subordinator's Laplace exponent")
print("=" * 72)
print("Y's truncated-jump simulation (with small-jump mean drift) reproduces")
print("exp(-phi(x)):\n")
for alpha in (0.3, 0.5, 0.8):
    y = sample_subordinator_marginal(alpha, 1.0, 1e-3, rng, size=50_000)
    for x in (1.0, 2.0):
        est = float(np.exp(-x * y).mean())
        target = math.exp(-phi_alpha(alpha, x))
        print(f"  alpha = {alpha}, x = {x}: E exp(-xY(1)) = {est:.5f} vs exp(-phi) = {target:.5f}")
print("\ndone.")
