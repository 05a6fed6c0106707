"""The limit law Z = integral of (1-s)^(-beta) against an inverse
alpha-stable subordinator, with 0 <= beta <= alpha < 1 and alpha+beta > 0.

Three routes to the same distribution are implemented and cross-checked:

* analytic moments (``z_moment``, with ``mittag_leffler_moment`` as the
  beta = 0 special case and the standard exponential at beta = alpha);
* a path-integral sampler driven by a grid-discretized stable subordinator
  (exact increments from ``randkit._standard_stable``: Levy draws 1/(2*N^2)
  at alpha = 1/2, Kanter's construction otherwise); at beta = 0 its draw is
  the grid first-passage time of level 1, so no separate path object is kept;
* an exponential-functional sampler ``integral_0^T exp(-c*Y(t)) dt`` with
  c = (alpha-beta)/alpha, T standard exponential, and Y the subordinator
  whose Laplace exponent is ``phi_alpha``.

A direct Mittag-Leffler sampler covers beta = 0 as a fourth route.  Gamma
values come from ``math.gamma``/``math.lgamma``; every caller validates its
arguments first, so they are always positive here.

Y's Levy density is exp(-t/alpha) * (1 - exp(-t/alpha))^(-(alpha+1)); its
tail integral inverts in closed form, which keeps the jump sampler exact
above the truncation threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randkit import _standard_stable, as_generator, sample_uniform01

__all__ = [
    "AlphaBeta",
    "phi_alpha",
    "small_jump_mean",
    "mittag_leffler_moment",
    "z_moment",
    "levy_tail_mass",
    "sample_levy_jump",
    "sample_z_pathint",
    "sample_z_expfunctional",
    "sample_mittag_leffler",
    "sample_subordinator_marginal",
]

MAX_MOMENT_ORDER = 20


@dataclass(frozen=True)
class AlphaBeta:
    """Admissible (alpha, beta) parameter pair: 0 <= beta <= alpha < 1, alpha+beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        ok = 0.0 <= self.beta <= self.alpha < 1.0 and self.alpha + self.beta > 0.0
        if not ok:
            raise ValueError(
                f"need 0 <= beta <= alpha < 1 with alpha+beta > 0, got ({self.alpha}, {self.beta})"
            )


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0,1), got {alpha}")


def phi_alpha(alpha: float, x: float) -> float:
    """Laplace exponent of Y: Gamma(1-a)*Gamma(a*x+1)/Gamma(a*(x-1)+1) - 1."""
    _check_alpha(alpha)
    if not x >= 0.0:
        raise ValueError(f"phi_alpha requires x >= 0, got {x}")
    # a*(x-1)+1 = a*x + (1-a) > 0, so log-gamma is always defined here
    lg = math.lgamma
    return math.exp(lg(1.0 - alpha) + lg(alpha * x + 1.0) - lg(alpha * (x - 1.0) + 1.0)) - 1.0


def _check_order(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"moment order must be a positive integer, got {n!r}")
    if n > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order capped at {MAX_MOMENT_ORDER}, got {n}")


def mittag_leffler_moment(alpha: float, n: int) -> float:
    """n-th moment of the Mittag-Leffler law: n! / (Gamma(1+n*a) * Gamma(1-a)^n)."""
    _check_alpha(alpha)
    _check_order(n)
    lg = math.lgamma
    return math.exp(lg(n + 1.0) - lg(1.0 + n * alpha) - n * lg(1.0 - alpha))


def z_moment(params: AlphaBeta, n: int) -> float:
    """n-th moment of Z: n! / prod_k (1-a+k(a-b)) * B(1-a, 1+k(a-b)).

    Reduces to n! at beta = alpha and to ``mittag_leffler_moment`` at beta = 0.
    """
    _check_order(n)
    a, b = params.alpha, params.beta
    lg = math.lgamma
    log_den = 0.0
    for k in range(1, n + 1):
        d = k * (a - b)
        log_beta = lg(1.0 - a) + lg(1.0 + d) - lg(2.0 - a + d)
        log_den += math.log(1.0 - a + d) + log_beta
    return math.exp(lg(n + 1.0) - log_den)


def levy_tail_mass(alpha: float, eps: float) -> float:
    """Mass of Y's Levy measure above ``eps``: (1-exp(-eps/a))^(-a) - 1."""
    _check_alpha(alpha)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if math.isinf(eps):
        return 0.0
    return math.expm1(-alpha * math.log(-math.expm1(-eps / alpha)))


def sample_levy_jump(alpha: float, eps: float, rng, size=None):
    """Jump of Y conditioned to exceed ``eps``, by inverting the tail integral.

    Solving tail(t) = V * tail(eps) for uniform V gives
    t = -a * log(1 - (1 + V*tail(eps))^(-1/a)); outputs are >= eps by
    construction (V -> 1 hits eps, V -> 0 runs into the far tail).
    """
    lam = levy_tail_mass(alpha, eps)
    rng = as_generator(rng)
    v = sample_uniform01(rng, size=size)
    # log1p/expm1 route: 1 + v*lam can be enormous near eps ~ 0
    inner = -np.expm1(-np.log1p(v * lam) / alpha)
    return np.maximum(-alpha * np.log(inner), eps)


def small_jump_mean(alpha: float, eps: float) -> float:
    """Expected small-jump mass per unit time: the integral of t against Y's
    Levy density over (0, eps].

    Quadrature on the substitution y = 1 - exp(-t/alpha) (integrand becomes
    -alpha*log(1-y) * y^-(alpha+1), integrable at 0).
    """
    from scipy.integrate import quad

    _check_alpha(alpha)
    y_hi = -math.expm1(-eps / alpha)
    # t = -a*log(1-y), measure alpha * y^-(a+1) dy
    val, _ = quad(
        lambda y: -(alpha**2) * math.log1p(-y) * y ** -(alpha + 1.0), 0.0, y_hi, limit=200
    )
    return val


def sample_subordinator_marginal(
    alpha: float, t: float, eps: float, rng, size=None, small_jump_drift: bool = False
):
    """Y(t) from the eps-truncated jump process.

    With ``small_jump_drift`` the discarded sub-eps jumps are replaced by
    their expected mass, shrinking the (one-sided) truncation bias of
    E exp(-x*Y(t)) from O(x*eps^(1-a)) to O(x^2*eps^(2-a)).
    """
    rng = as_generator(rng)
    lam = levy_tail_mass(alpha, eps)
    counts = rng.poisson(lam * t, size=size)
    total_jumps = int(np.sum(counts))
    sizes = sample_levy_jump(alpha, eps, rng, size=total_jumps)
    if size is None:
        out = float(sizes.sum())
    else:
        out = np.zeros(np.shape(counts), dtype=float)
        flat = out.reshape(-1)
        np.add.at(flat, np.repeat(np.arange(flat.size), counts.reshape(-1)), sizes)
        out = flat.reshape(np.shape(counts))
    if small_jump_drift:
        out = out + small_jump_mean(alpha, eps) * t
    return out


_MAX_PATH_STEPS = 200_000_000


def _pathint_block(alpha, beta, grid_step, scale, rng, n, block=64, max_steps=_MAX_PATH_STEPS):
    """Lockstep path-integral draws: all paths advance through shared
    increment blocks; finished paths drop out of the active set.  Each path
    draws at most ``max_steps`` increments: the last block is clipped to it."""
    z = np.zeros(n)
    x = np.zeros(n)
    active = np.arange(n)
    # grid index 0 contributes (1 - 0)^(-beta) * h for every path
    z += grid_step
    steps = 0
    while active.size:
        if steps >= max_steps:
            raise RuntimeError(f"path-integral sampler exceeded the step budget of {max_steps} "
                               f"({active.size} of {n} paths)")
        width = min(block, max_steps - steps)
        inc = _standard_stable(alpha, rng, size=(active.size, width))
        inc *= scale
        cum = np.cumsum(inc, axis=1, out=inc)
        cum += x[active, None]
        below = cum < 1.0
        if beta != 0.0:
            # the weight is evaluated only below the level: 1 - cum > 0 there
            weight = np.power(1.0 - cum, -beta, out=np.zeros_like(cum), where=below)
            z[active] += grid_step * weight.sum(axis=1)
        else:
            z[active] += grid_step * below.sum(axis=1)
        alive = below[:, -1]
        x[active] = cum[:, -1]
        active = active[alive]
        steps += width
    return z


def sample_z_pathint(params: AlphaBeta, grid_step: float, rng, size=None):
    """Z via the discretized inverse path: sum of (1 - X(i*h))^(-beta) * h
    over all grid indices with X(i*h) < 1, where X has Laplace scale
    Gamma(1-alpha).

    A pre-crossing grid value equal to 1.0 exactly (float-induced; the event
    has probability zero) is treated as crossed, so the singular integrand is
    never evaluated at 0.
    """
    if not (grid_step > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be finite positive, got {grid_step}")
    rng = as_generator(rng)
    alpha, beta = params.alpha, params.beta
    scale = (math.gamma(1.0 - alpha) * grid_step) ** (1.0 / alpha)
    n = 1 if size is None else int(size)
    z = _pathint_block(alpha, beta, grid_step, scale, rng, n)
    return float(z[0]) if size is None else z


def sample_z_expfunctional(params: AlphaBeta, eps: float, rng, size=None):
    """Z via the exponential functional: integral of exp(-c*Y(t)) over [0, T].

    Y is run as its eps-truncated jump process (constant between jumps, so
    the integral is an exact finite sum); sub-eps jumps are discarded without
    compensation, a documented one-sided bias.  At beta = alpha the exponent
    c is zero and the integral is T itself; otherwise an ``eps`` with no Levy
    mass above it in float64 raises ValueError.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    rng = as_generator(rng)
    alpha, beta = params.alpha, params.beta
    n = 1 if size is None else int(size)
    if beta == alpha:
        t_exp = rng.standard_exponential(n)
        return float(t_exp[0]) if size is None else t_exp

    c = (alpha - beta) / alpha
    lam = levy_tail_mass(alpha, eps)
    if not lam > 0.0:
        # a mass of 0.0 (eps = inf) leaves Y without jumps, so every draw
        # would be T; -0.0 (eps above about 19 at alpha = 1/2) makes every
        # wait -inf, so no path would end
        raise ValueError(f"the Levy mass above eps = {eps} is {lam} in float64; choose a "
                         "smaller eps")
    t_exp = rng.standard_exponential(n)
    z = np.zeros(n)
    y = np.zeros(n)
    clock = np.zeros(n)
    active = np.arange(n)
    while active.size:
        m = active.size
        wait = rng.standard_exponential(m) / lam
        nxt = clock[active] + wait
        seg_end = np.minimum(nxt, t_exp[active])
        z[active] += (seg_end - clock[active]) * np.exp(-c * y[active])
        alive = nxt < t_exp[active]
        jumps = sample_levy_jump(alpha, eps, rng, size=m)
        y[active] += np.where(alive, jumps, 0.0)
        clock[active] = nxt
        active = active[alive]
    return float(z[0]) if size is None else z


def sample_mittag_leffler(alpha: float, rng, size=None):
    """Direct Mittag-Leffler draws: Gamma(1-a)^(-1) * S^(-a) for standard
    one-sided stable S (self-similarity inversion of the first-passage level)."""
    _check_alpha(alpha)
    s = _standard_stable(alpha, as_generator(rng), size=size)
    return s**-alpha / math.gamma(1.0 - alpha)
